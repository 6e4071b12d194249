"""Deterministic core of the online planning service.

The scheduler here is *pure control logic*: a bounded FIFO admission
queue with load shedding, per-request deadlines, and a degradation
ladder that trades route quality for latency as the deadline budget
shrinks::

    full SRP  ->  cached/strip-only  ->  grid A* fallback  ->  FAILED
                       (both lower rungs answer as DEGRADED)

plus two non-answers decided by the scheduler alone: ``SHED`` (queue
full at admission) and ``TIMEOUT`` (deadline expired before planning
started).

**Priority-tiered admission.**  Requests carry one of three priority
tiers mirroring the fleet's urgency ordering — ``TIER_CARRYING`` (a
robot with a rack on board), ``TIER_CHARGE`` (a critical-battery robot
heading to a charger), ``TIER_IDLE`` (everything else; the default).
Shedding is priority-aware: when the queue is full, an incoming
request may *evict* the most recent queued request of a strictly less
urgent tier instead of being shed itself, so a critical-battery
request is never dropped while idle-tier requests queue.  Evicted
requests are answered ``SHED`` in arrival order at dequeue time.  With
every request at the default tier no eviction can trigger and the
scheduler behaves exactly as the flat bounded FIFO it always was.

**No wall clock, no randomness.**  Every method takes the current time
as an integer-millisecond argument; the socket frontend passes real
time, and the tests' :func:`~repro.service.loadgen.drive_simulated`
passes a simulated clock.  Driving
the same seeded arrival schedule through two fresh cores therefore
yields identical replies, identical shed/timeout decisions and an
identical replayable :class:`~repro.tracing.PlannerTrace` — the
property ``tests/test_service_core.py`` pins.  This module is inside
srplint's SRP003 determinism scope; real time lives only in
``service/server.py`` and ``service/loadgen.py``.

Every answered query is appended to the session trace with the rung
that produced it as the entry ``tag``, so a service session can be
replayed bit-for-bit offline: :class:`RungReplayPlanner` re-applies
the recorded rung sequence to a fresh planner and
:func:`repro.tracing.replay_trace` diffs the result.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import InvalidQueryError, PlanningFailedError
from repro.planner_base import Planner
from repro.service.telemetry import TelemetryRegistry
from repro.tracing import PlannerTrace, ReplayReport, TraceEntry, replay_trace
from repro.types import Query, Route


#: priority tiers, most urgent first (numerically smallest = most
#: urgent, matching the recovery ordering in simulation/recovery.py)
TIER_CARRYING = 0
TIER_CHARGE = 1
TIER_IDLE = 2


class Rung(enum.Enum):
    """One rung of the degradation ladder, cheapest last."""

    FULL = "full"          # the complete SRP pipeline, internal fallback included
    CACHED = "cached"      # strip-level search only: no grid-level A* fallback
    FALLBACK = "fallback"  # one expansion-bounded grid-level A* shot


class ReplyStatus(enum.Enum):
    """Outcome classes of one service request."""

    OK = "ok"              # answered at the full rung
    DEGRADED = "degraded"  # answered at a lower rung (route is still conflict-free)
    SHED = "shed"          # rejected at admission: queue full (or frontend draining)
    TIMEOUT = "timeout"    # deadline expired before planning started
    FAILED = "failed"      # every eligible rung was tried and none found a route


@dataclass
class ServiceConfig:
    """Tunables of the admission queue and the degradation ladder.

    All times are integer milliseconds.  ``full_budget_ms`` and
    ``cached_budget_ms`` are the minimum *remaining* deadline budget at
    dequeue time for which the scheduler still attempts the full SRP
    pipeline (respectively the cached/strip-only rung); below
    ``cached_budget_ms`` only the bounded A* shot is tried.  Requests
    without a deadline always start at the full rung.
    """

    queue_capacity: int = 64
    #: default per-request deadline relative to arrival; 0 disables
    default_deadline_ms: int = 0
    full_budget_ms: int = 50
    cached_budget_ms: int = 10
    #: release-delay window granted to the degraded rungs (the full
    #: rung uses the planner's own ``max_start_delay``)
    degraded_start_delay: int = 8


@dataclass
class Request:
    """One admitted (or about-to-be-admitted) planning request.

    ``deadline_ms`` is absolute (same clock as ``arrival_ms``); 0 means
    no deadline.  ``client`` is an opaque frontend token (the socket
    server stores a reply callback there) and never influences
    scheduling, so it is excluded from comparisons.
    """

    request_id: int
    query: Query
    arrival_ms: int
    deadline_ms: int = 0
    client: Optional[object] = field(default=None, compare=False, repr=False)
    #: owning shard when the planner is region-sharded (stamped at
    #: admission so per-shard dispatchers can pull their own work);
    #: -1 = unassigned, any dispatcher may take it
    shard: int = field(default=-1, compare=False)
    #: priority tier (TIER_CARRYING / TIER_CHARGE / TIER_IDLE); smaller
    #: is more urgent and shields the request from eviction
    priority: int = field(default=TIER_IDLE, compare=False)
    #: set when a more urgent arrival claimed this request's queue slot;
    #: answered SHED at dequeue without planning
    evicted: bool = field(default=False, compare=False, repr=False)


@dataclass
class Reply:
    """The service's answer to one request."""

    request_id: int
    status: ReplyStatus
    rung: str = ""
    route: Optional[Route] = None
    #: milliseconds between admission and dequeue (0 for shed replies)
    queue_ms: int = 0
    note: str = ""

    def fingerprint(self) -> Tuple[object, ...]:
        """A comparable summary used by the determinism tests."""
        route_fp = None
        if self.route is not None:
            route_fp = (self.route.start_time, tuple(self.route.grids))
        return (self.request_id, self.status.value, self.rung, self.queue_ms, route_fp)


@dataclass
class Dequeued:
    """One request popped from the admission queue, budget already sized.

    ``remaining_ms`` is the deadline budget left at dequeue time
    (``None`` when the request carries no deadline); ``timed_out``
    marks requests whose deadline expired while queued — they must be
    answered ``TIMEOUT`` without planning.
    """

    request: Request
    queue_ms: int
    remaining_ms: Optional[int]
    timed_out: bool
    #: the request lost its slot to a higher-priority admission and
    #: must be answered SHED without planning
    evicted: bool = False


def plan_at_rung(planner: Planner, query: Query, rung: Rung,
                 degraded_start_delay: Optional[int] = 8) -> Optional[Route]:
    """Plan ``query`` at exactly one ladder rung; ``None`` when it fails.

    ``degraded_start_delay`` bounds the release-delay window of the two
    degraded rungs; ``None`` keeps the planner's own window.  Planners
    without the SRP rung methods (baselines, wrappers) serve every rung
    with their plain :meth:`~repro.planner_base.Planner.plan` —
    degradation then changes nothing but the reply tag, which keeps the
    service generic over the planner zoo.
    """
    if rung is Rung.CACHED:
        strip_only = getattr(planner, "plan_strip_only", None)
        if strip_only is not None:
            return strip_only(query, max_start_delay=degraded_start_delay)
    elif rung is Rung.FALLBACK:
        fallback_only = getattr(planner, "plan_fallback_only", None)
        if fallback_only is not None:
            return fallback_only(query, max_start_delay=degraded_start_delay)
    try:
        return planner.plan(query)
    except PlanningFailedError:
        return None


class ServiceCore:
    """Bounded-FIFO admission + deadline scheduling + degradation ladder.

    The core owns the planner and the session trace but no threads, no
    sockets and no clock: callers drive it with :meth:`submit` /
    :meth:`process_next` and supply ``now_ms`` explicitly.  All
    telemetry it emits is a deterministic function of the supplied
    schedule.
    """

    def __init__(
        self,
        planner: Planner,
        config: Optional[ServiceConfig] = None,
        telemetry: Optional[TelemetryRegistry] = None,
    ) -> None:
        self.planner = planner
        self.config = config or ServiceConfig()
        self.telemetry = telemetry or TelemetryRegistry()
        self.trace = PlannerTrace(planner_name=planner.name)
        self._queue: Deque[Request] = deque()
        #: evicted requests still physically queued (they no longer
        #: occupy admission capacity; answered SHED at dequeue)
        self._evicted_pending = 0
        # Region-sharded planners classify queries at admission so the
        # frontend's per-shard dispatchers only pull their own work.
        self._classify = getattr(planner, "shard_of_query", None)

    # -- admission -----------------------------------------------------
    def pending(self) -> int:
        """Requests admitted but not yet processed."""
        return len(self._queue)

    def submit(self, request: Request, now_ms: int) -> Optional[Reply]:
        """Admit one request, or shed it when the queue is full.

        Returns the immediate :class:`Reply` when the request was shed
        and ``None`` when it was admitted (the answer will come from a
        later :meth:`process_next` call).

        Shedding is priority-aware: a full queue sheds the *least
        urgent* work.  When the incoming request outranks a queued one
        (strictly smaller tier number), the most recent queued request
        of the least urgent tier is evicted to make room; otherwise the
        incoming request itself is shed.  Per-tier ``requests_tier_*``
        and ``shed_tier_*`` counters record both sides.
        """
        self.telemetry.incr("requests")
        self.telemetry.incr(f"requests_tier_{request.priority}")
        if len(self._queue) - self._evicted_pending >= self.config.queue_capacity:
            victim = self._eviction_victim(request.priority)
            if victim is None:
                self.telemetry.incr("shed")
                self.telemetry.incr(f"shed_tier_{request.priority}")
                return Reply(request.request_id, ReplyStatus.SHED,
                             note="admission queue full")
            victim.evicted = True
            self._evicted_pending += 1
            self.telemetry.incr("shed")
            self.telemetry.incr(f"shed_tier_{victim.priority}")
        if request.deadline_ms == 0 and self.config.default_deadline_ms > 0:
            request = Request(
                request.request_id,
                request.query,
                request.arrival_ms,
                request.arrival_ms + self.config.default_deadline_ms,
                request.client,
                request.shard,
                request.priority,
            )
        if self._classify is not None and request.shard < 0:
            request.shard = self._classify(request.query)
        self._queue.append(request)
        self.telemetry.incr("admitted")
        self.telemetry.set_gauge(
            "queue_depth", len(self._queue) - self._evicted_pending
        )
        return None

    def _eviction_victim(self, priority: int) -> Optional[Request]:
        """The queued request an arrival at ``priority`` may displace.

        Scans for live requests of a strictly less urgent tier and
        picks the least urgent, most recently admitted one (evicting
        the oldest would maximise wasted queue time).  ``None`` when
        nothing outranks — the arrival is shed instead.
        """
        victim: Optional[Request] = None
        for req in self._queue:  # oldest -> newest
            if req.evicted or req.priority <= priority:
                continue
            if victim is None or req.priority >= victim.priority:
                victim = req
        return victim

    # -- scheduling ----------------------------------------------------
    def _ladder(self, remaining_ms: Optional[int]) -> Tuple[Rung, ...]:
        """Rungs to try, given the remaining deadline budget (None = no deadline)."""
        cfg = self.config
        if remaining_ms is None or remaining_ms >= cfg.full_budget_ms:
            return (Rung.FULL, Rung.CACHED, Rung.FALLBACK)
        if remaining_ms >= cfg.cached_budget_ms:
            return (Rung.CACHED, Rung.FALLBACK)
        return (Rung.FALLBACK,)

    def dequeue(self, now_ms: int, shard: Optional[int] = None) -> Optional[Dequeued]:
        """Pop the oldest admitted request and size its deadline budget.

        Cheap bookkeeping only (no planning) so a threaded frontend can
        hold its state lock across it; ``None`` when the queue is empty.

        With ``shard`` the oldest request *belonging to that shard* (or
        unassigned, ``shard == -1``) is popped instead — per-shard
        dispatcher threads pull their own work from the one FIFO queue,
        preserving arrival order within each shard.  The scan is linear
        but the queue is bounded by ``queue_capacity``.
        """
        if shard is None:
            if not self._queue:
                return None
            request = self._queue.popleft()
        else:
            found = None
            for idx, req in enumerate(self._queue):
                if req.shard == shard or req.shard < 0:
                    found = idx
                    break
            if found is None:
                return None
            request = self._queue[found]
            del self._queue[found]
        if request.evicted:
            # Lost its slot to a higher-priority admission; the shed
            # was already counted when the eviction happened, and the
            # queue-latency histogram only tracks work actually served.
            self._evicted_pending -= 1
            self.telemetry.set_gauge(
                "queue_depth", len(self._queue) - self._evicted_pending
            )
            return Dequeued(request, 0, None, False, evicted=True)
        self.telemetry.set_gauge(
            "queue_depth", len(self._queue) - self._evicted_pending
        )
        queue_ms = max(0, now_ms - request.arrival_ms)
        self.telemetry.observe("queue_ms", queue_ms)
        remaining: Optional[int] = None
        timed_out = False
        if request.deadline_ms > 0:
            remaining = request.deadline_ms - now_ms
            timed_out = remaining < 0
        return Dequeued(request, queue_ms, remaining, timed_out)

    def plan_dequeued(
        self, item: Dequeued
    ) -> Tuple[Optional[Route], Optional[Rung], str]:
        """Run the degradation ladder for one dequeued request.

        Touches *only the planner* (no telemetry, no trace), so a
        threaded frontend may run it outside its state lock — planning
        is the expensive part, and admission must not block on it.
        Returns ``(route, rung, note)``; route is ``None`` on timeout,
        invalid queries and ladder exhaustion.
        """
        if item.evicted:
            return None, None, "evicted by higher-priority admission"
        if item.timed_out:
            return None, None, "deadline expired in queue"
        try:
            for rung in self._ladder(item.remaining_ms):
                route = plan_at_rung(
                    self.planner, item.request.query, rung,
                    self.config.degraded_start_delay,
                )
                if route is not None:
                    return route, rung, ""
        except InvalidQueryError as exc:
            return None, None, f"invalid query: {exc}"
        return None, None, "no rung found a route"

    def record_outcome(
        self,
        item: Dequeued,
        route: Optional[Route],
        rung: Optional[Rung],
        note: str,
    ) -> Reply:
        """Fold one planning outcome into telemetry + trace; build the reply."""
        request = item.request
        if item.evicted:
            # Counted as shed when the eviction happened.
            return Reply(request.request_id, ReplyStatus.SHED, note=note)
        if item.timed_out:
            self.telemetry.incr("timeout")
            return Reply(request.request_id, ReplyStatus.TIMEOUT,
                         queue_ms=item.queue_ms, note=note)
        if route is None or rung is None:
            self.telemetry.incr("failed")
            return Reply(request.request_id, ReplyStatus.FAILED,
                         queue_ms=item.queue_ms, note=note)
        status = ReplyStatus.OK if rung is Rung.FULL else ReplyStatus.DEGRADED
        self.telemetry.incr(status.value)
        self.telemetry.incr("rung_" + rung.value)
        self.trace.entries.append(TraceEntry(request.query, route, rung.value))
        return Reply(request.request_id, status, rung.value, route, item.queue_ms)

    def process_next(self, now_ms: int) -> Optional[Tuple[Request, Reply]]:
        """Dequeue and answer the oldest admitted request.

        Returns ``None`` when the queue is empty.  A request whose
        deadline has already passed is answered ``TIMEOUT`` without
        touching the planner; otherwise the degradation ladder runs
        top-down from the rung its remaining budget affords.
        """
        item = self.dequeue(now_ms)
        if item is None:
            return None
        route, rung, note = self.plan_dequeued(item)
        return item.request, self.record_outcome(item, route, rung, note)

    def drain(self, now_ms: int) -> List[Tuple[Request, Reply]]:
        """Answer everything still queued (graceful-shutdown path)."""
        answered: List[Tuple[Request, Reply]] = []
        while True:
            item = self.process_next(now_ms)
            if item is None:
                return answered
            answered.append(item)

    # -- housekeeping --------------------------------------------------
    def prune(self, before: int) -> None:
        """Forward a simulated-time prune to the planner."""
        self.planner.prune(before)

    def stats_snapshot(self) -> Dict[str, Any]:
        """Telemetry snapshot including the planner's own counters."""
        extra: Dict[str, Any] = {"queries": self.planner.timers.queries}
        stats = getattr(self.planner, "stats", None)
        if stats is not None:
            for name in ("fallbacks", "replans", "replan_attempts",
                         "decommitted_segments"):
                extra[name] = int(getattr(stats, name, 0) or 0)
        snap = self.telemetry.snapshot(extra=extra)
        snap["pending"] = self.pending()
        snap["trace_entries"] = len(self.trace)
        tiers: Dict[str, float] = {}
        for tier in (TIER_CARRYING, TIER_CHARGE, TIER_IDLE):
            total = self.telemetry.count(f"requests_tier_{tier}")
            if total:
                tiers[str(tier)] = self.telemetry.count(f"shed_tier_{tier}") / total
        if tiers:
            snap["shed_rate_tiers"] = tiers
        shard_stats = getattr(self.planner, "shard_stats", None)
        if shard_stats is not None:
            snap["shards"] = shard_stats()
        router_stats = getattr(self.planner, "router_stats", None)
        if router_stats is not None:
            snap["router"] = router_stats()
        return snap


class RungReplayPlanner(Planner):
    """Replay a service session's rung decisions against a fresh planner.

    Wraps a planner and a recorded rung-tag sequence (one tag per
    planned query, in order — exactly what a service session trace
    carries); each :meth:`plan` call is answered at the recorded rung.
    Rung *selection* in the live service depends on timing, but given
    the recorded decisions the planning itself is deterministic, so
    replaying a session trace through this wrapper reproduces every
    route bit-for-bit.  Entries with an empty/unknown tag use the plain
    :meth:`~repro.planner_base.Planner.plan`.
    """

    def __init__(self, inner: Planner, tags: Sequence[str]) -> None:
        super().__init__()
        self.inner = inner
        self.name = inner.name
        self._tags: Deque[str] = deque(tags)

    def plan(self, query: Query) -> Route:
        tag = self._tags.popleft() if self._tags else ""
        rung: Optional[Rung]
        try:
            rung = Rung(tag)
        except ValueError:
            rung = None
        if rung is None:
            return self.inner.plan(query)
        route = plan_at_rung(self.inner, query, rung)
        if route is None:
            raise PlanningFailedError(
                f"recorded rung {tag!r} found no route on replay",
                query_id=query.query_id,
                release_time=query.release_time,
                phase=tag,
            )
        return route

    def reset(self) -> None:
        self.inner.reset()

    def prune(self, before: int) -> None:
        self.inner.prune(before)

    def planning_state(self) -> object:
        return self.inner.planning_state()


def replay_session(trace: PlannerTrace, planner: Planner) -> ReplayReport:
    """Replay a *service* session trace through a fresh planner.

    Convenience over :func:`repro.tracing.replay_trace`: re-applies the
    rung tag recorded on every entry so degraded answers are replayed
    at their original rung.  With an identically configured planner the
    replayed routes are bit-identical to the recorded ones.
    """
    return replay_trace(trace, RungReplayPlanner(planner, [e.tag for e in trace.entries]))
