"""The end-to-end Strip-based Route Planner (the paper's SRP).

:class:`SRPPlanner` wires the pieces together exactly as Fig. 2
describes: strip graph construction once at start-up, then per query an
inter-strip Dijkstra whose edge weights come from intra-strip
segment-based planning, a conversion of the winning segment plan to a
grid route, and commitment of the plan's segments into the per-strip
stores so subsequent queries are collision-aware of it.

Instrumentation matches Fig. 22(a)'s time breakdown: ``inter_time``,
``intra_time`` and ``conversion_time`` are accumulated separately.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.columnar_store import ColumnarSegmentStore
from repro.core.conversion import plan_to_route, route_to_strip_artifacts
from repro.core.crossings import CrossingLedger
from repro.core.fallback import SegmentStoreChecker, fallback_plan
from repro.core.inter_strip import CrossingKey, RoutePlan, SearchConfig, SearchStats, plan_route
from repro.core.naive_store import NaiveSegmentStore
from repro.core.segments import Segment
from repro.core.slope_index import SlopeIndexedStore
from repro.core.store_base import SegmentStore, StripStoreMap
from repro.core.strips import StripGraph, build_strip_graph
from repro.exceptions import InvalidQueryError, PlanningFailedError
from repro.pathfinding.distance import StripDistanceMaps
from repro.planner_base import Planner
from repro.types import Grid, Query, Route, concatenate_routes
from repro.warehouse.matrix import Warehouse


@dataclass
class SRPStats:
    """Per-planner counters; times in seconds (Fig. 22 breakdown)."""

    inter_time: float = 0.0  # srplint: allow-float perf_counter seconds, reporting only
    intra_time: float = 0.0  # srplint: allow-float perf_counter seconds, reporting only
    conversion_time: float = 0.0  # srplint: allow-float perf_counter seconds, reporting only
    queries: int = 0
    fallbacks: int = 0
    start_delays: int = 0
    intra_calls: int = 0
    intra_expansions: int = 0
    strips_popped: int = 0
    edges_relaxed: int = 0
    #: intra-strip searches answered free-flow without running: past the
    #: store's ``last_end``, or certified clear by its band index
    band_skips: int = 0
    #: recovery replans served (``replan_from`` calls, successful or not)
    replans: int = 0
    #: segments removed from stores by route decommits
    decommitted_segments: int = 0
    #: recovery planning operations attempted: every ``replan_from``
    #: call plus every externally planned suffix committed via
    #: ``commit_recovered_route``.  Together with
    #: ``decommitted_segments`` this is the recovery-efficiency metric
    #: the serial-vs-joint comparison is judged on.
    replan_attempts: int = 0
    #: conflict clusters recovered jointly (``recovery="joint"`` runs)
    recovery_clusters: int = 0
    #: robots that went through joint cluster recovery
    cluster_robots: int = 0
    #: clusters escalated to CBS after prioritised replanning failed
    cbs_escalations: int = 0
    #: clusters that fell back to the serial hold-and-replan ladder
    serial_fallbacks: int = 0

    @property
    def total_time(self) -> float:
        return self.inter_time + self.intra_time + self.conversion_time

    def reset(self) -> None:
        # Re-assigning a fresh instance's state (calling ``self.__init__``
        # directly is unsound under strict typing and breaks on dataclass
        # signature changes).
        self.__dict__.update(SRPStats().__dict__)


@dataclass
class CommitRecord:
    """Everything one query committed, for later decommit/recovery.

    ``segments`` lists one entry per *store insertion* (a multiset view:
    value-equal duplicates are legal), so a decommit can undo exactly
    the insertions the commit performed.  ``route`` is the query's
    current full grid route, updated in place by recoveries.
    """

    query: Query
    route: Route
    segments: List[Tuple[int, Segment]] = field(default_factory=list)
    crossings: List[CrossingKey] = field(default_factory=list)


class SRPPlanner(Planner):
    """Strip-based collision-aware route planner (the paper's contribution).

    Args:
        warehouse: the warehouse to plan in.
        use_heuristic: add an admissible Manhattan heuristic to the
            inter-strip search (an engineering extension over the
            paper's plain Dijkstra; effectiveness is unaffected).
        intra_exact: replace the greedy Algorithm 2 search with the
            exact time-expanded intra-strip search (slower, slightly
            better routes; the Fig. 13 restriction ablation).
        intra_backward: with intra_exact, also allow backward moves
            inside strips, lifting the Fig. 13 restriction entirely.
        store: segment store backend — "slope" (the Algorithm 3
            slope-based index of Section V-D, default) or "naive" (the
            ordered-set store of Section V-B).  This switch, with
            store_layout="object", drives the Fig. 22(b) ablation.
        store_layout: physical layout of the per-strip stores —
            "columnar" (array-backed parallel int columns with a
            per-band interval index; bit-identical to the slope index
            and the default for store="slope") or "object" (one Python object
            per segment; the default for store="naive").
            "columnar" requires store="slope" — it reproduces exactly
            that backend's semantics.
        max_wait: cap on consecutive waiting seconds tried at one cell.
        max_expansions: per-intra-strip-search collision-query budget.
        max_start_delay: how many release-time delays to try when the
            origin cell is occupied at release before giving up.
    """

    name = "SRP"

    def __init__(
        self,
        warehouse: Warehouse,
        use_heuristic: bool = True,
        max_wait: int = 64,
        max_expansions: int = 2000,
        max_start_delay: int = 32,
        fallback_expansions: int = 200_000,
        intra_exact: bool = False,
        intra_backward: bool = False,
        store: str = "slope",
        store_layout: Optional[str] = None,
        region: Optional[Sequence[bool]] = None,
    ) -> None:
        super().__init__()
        self.warehouse = warehouse
        self.graph: StripGraph = build_strip_graph(warehouse)
        #: per-strip admissibility mask for region-sharded planning; None
        #: (the default) plans over the whole strip graph.  With a mask,
        #: queries must start and end on allowed strips and every search
        #: (strip-level and the A* fallback) stays inside them.
        self.region: Optional[Tuple[bool, ...]] = (
            None if region is None else tuple(bool(x) for x in region)
        )
        if self.region is not None and len(self.region) != self.graph.n_vertices:
            raise ValueError(
                f"region mask covers {len(self.region)} strips, "
                f"graph has {self.graph.n_vertices}"
            )
        factories = {
            "slope": SlopeIndexedStore,
            "naive": NaiveSegmentStore,
        }
        if store not in factories:
            raise ValueError(f"unknown store {store!r}; expected one of {sorted(factories)}")
        if store_layout is None:
            store_layout = "columnar" if store == "slope" else "object"
        if store_layout not in ("object", "columnar"):
            raise ValueError(
                f"unknown store_layout {store_layout!r}; expected 'object' or 'columnar'"
            )
        if store_layout == "columnar" and store != "slope":
            raise ValueError(
                "store_layout='columnar' implements the slope-index semantics; "
                "combine it with store='slope' (or pick store_layout='object')"
            )
        self.store_kind = store
        self.store_layout = store_layout
        factory: Callable[[], SegmentStore] = (
            ColumnarSegmentStore if store_layout == "columnar" else factories[store]
        )
        self._store_factory = factory
        # Lazy map: strips without traffic share one empty store, so the
        # planner's resident state scales with live routes, not with
        # warehouse size (this is the MC story of Figs. 19-21).
        self.stores = StripStoreMap(self.graph.n_vertices, self._store_factory)
        self.config = SearchConfig(
            max_expansions=max_expansions,
            max_wait=max_wait,
            use_heuristic=use_heuristic,
            intra_exact=intra_exact,
            intra_backward=intra_backward,
        )
        self.max_start_delay = max_start_delay
        self.fallback_expansions = fallback_expansions
        #: committed boundary crossings (from_cell, to_cell, arrival_time)
        self.crossings = CrossingLedger(warehouse.height, warehouse.width)
        #: strip-keyed heuristic fields for the A* fallback: one pair of
        #: multi-source BFS fields per destination *strip* serves every
        #: destination cell in it (see pathfinding.distance)
        self.distance_maps = StripDistanceMaps(warehouse, self.graph)
        self.stats = SRPStats()
        #: per-query commit records enabling decommit/recovery; only
        #: queries with a non-negative ``query_id`` are recorded (ids
        #: are the recovery handle, and anonymous queries have none).
        self._commits: Dict[int, CommitRecord] = {}
        #: routes rewritten by recoveries since the last take_revisions()
        self._revisions: Dict[int, Route] = {}
        #: transient standing-presence claims for decommitted cluster
        #: members awaiting their replan (joint recovery only); always
        #: released again within the same cluster recovery.
        self._recovery_holds: Dict[int, Tuple[int, Segment]] = {}
        #: outstanding boundary-strip claims of in-flight two-phase
        #: commits (region-sharded cross-region planning): per query id,
        #: the hold segments and inter-region crossing keys claimed
        #: during *prepare* and not yet bound into the commit record.
        self._boundary_claims: Dict[
            int, Tuple[List[Tuple[int, Segment]], List[CrossingKey]]
        ] = {}
        #: exogenous cell blockages committed via commit_blockage, as
        #: ``(cell, t0, t1)`` — kept so the post-run state audit can
        #: distinguish injected obstacles from phantom reservations.
        self.blockages: List[Tuple[Grid, int, int]] = []
        #: extra release delays tried by the recovery ladder's final
        #: wait-and-retry rung, beyond ``max_start_delay``
        self.recovery_backoff: Tuple[int, ...] = (8, 16, 32, 64)

    # ------------------------------------------------------------------
    # Planner interface
    # ------------------------------------------------------------------
    def plan(self, query: Query) -> Route:
        """Plan one query and commit its occupancy for future queries."""
        self._check_query(query)
        started = _time.perf_counter()
        try:
            route = self._plan_inner(query)
        finally:
            self.timers.total += _time.perf_counter() - started
            self.timers.queries += 1
        return route

    def _plan_inner(self, query: Query) -> Route:
        self.stats.queries += 1
        origin_strip, origin_pos = self.graph.locate(query.origin)
        store = self.stores[origin_strip]
        release = query.release_time
        latest = release + self.max_start_delay
        attempts = 0
        t = release
        while True:
            # Delay departure past seconds when the origin cell itself is
            # claimed by earlier traffic (e.g. a robot crossing it).  The
            # batched occupancy scan jumps straight to the next free
            # second — the same attempt sequence the old per-second probe
            # loop produced, in one store call per attempt.
            free = store.clear_entry_time(origin_pos, t, latest)
            if free is None:
                break
            delay = free - release
            attempt = Query(
                query.origin,
                query.destination,
                free,
                query.kind,
                query.query_id,
            )
            # The strip search is cheap and retried at every free second;
            # the expensive A* fallback is rationed to every fourth
            # attempt (transient congestion near the start often clears
            # within a couple of seconds).
            allow_fallback = attempts % 4 == 0 or delay == self.max_start_delay
            attempts += 1
            route = self._plan_once(attempt, allow_fallback)
            if route is not None:
                if delay:
                    self.stats.start_delays += 1
                return route
            t = free + 1
        self.timers.failures += 1
        raise PlanningFailedError(
            f"no collision-free route from {query.origin} to {query.destination}",
            query_id=query.query_id,
            release_time=query.release_time,
            phase="start-delay",
            expansions=self.stats.intra_expansions,
        )

    def _plan_once(self, query: Query, allow_fallback: bool = True) -> Optional[Route]:
        search_started = _time.perf_counter()
        stats = SearchStats()
        plan = plan_route(
            self.graph,
            self.stores,
            self.crossings,
            query,
            self.config,
            stats,
            self.region,
        )
        elapsed = _time.perf_counter() - search_started
        self.stats.intra_time += stats.intra_time
        self.stats.inter_time += max(0.0, elapsed - stats.intra_time)  # srplint: allow-float timer bookkeeping
        self.stats.intra_calls += stats.intra_calls
        self.stats.intra_expansions += stats.intra_expansions
        self.stats.strips_popped += stats.strips_popped
        self.stats.edges_relaxed += stats.edges_relaxed
        self.stats.band_skips += stats.band_skips

        if plan is not None:
            conv_started = _time.perf_counter()
            route = plan_to_route(self.graph, plan)
            route.query_id = query.query_id
            self._commit_plan(query, plan, route)
            self.stats.conversion_time += _time.perf_counter() - conv_started
            return route
        if not allow_fallback:
            return None
        return self._plan_fallback(query)

    def _plan_fallback(self, query: Query) -> Optional[Route]:
        """Section VI remarks: rare grid-level A* against the stores."""
        started = _time.perf_counter()
        route = fallback_plan(
            self.graph,
            self.stores,
            self.crossings,
            self.distance_maps,
            query,
            max_expansions=self.fallback_expansions,
            allowed=self.region,
        )
        if route is not None:
            self.stats.fallbacks += 1
            route.query_id = query.query_id
            segments, crossings = route_to_strip_artifacts(self.graph, route)
            for strip_idx, segment in segments:
                self.stores.materialize(strip_idx).insert(segment, query.query_id)
            self.crossings.update(crossings)
            presence = self._commit_origin_presence(route)
            if query.query_id >= 0:
                self._commits[query.query_id] = CommitRecord(
                    query, route, segments + [presence], list(crossings)
                )
        self.stats.inter_time += _time.perf_counter() - started
        return route

    def plan_strip_only(
        self, query: Query, max_start_delay: Optional[int] = None
    ) -> Optional[Route]:
        """Strip-level planning only; never runs the grid-level A* fallback.

        The cheap rung of the service degradation ladder: it skips the
        grid-level A* fallback, by far the costliest step of a query.
        Scans the release-delay window like :meth:`plan`
        (bounded by ``max_start_delay``, default the planner's own) but
        returns ``None`` instead of raising when no strip-level route
        exists within the window.  Successful routes are committed
        exactly like :meth:`plan` results.
        """
        self._check_query(query)
        started = _time.perf_counter()
        try:
            self.stats.queries += 1
            window = self.max_start_delay if max_start_delay is None else max_start_delay
            origin_strip, origin_pos = self.graph.locate(query.origin)
            store = self.stores[origin_strip]
            release = query.release_time
            t = release
            while True:
                free = store.clear_entry_time(origin_pos, t, release + window)
                if free is None:
                    return None
                attempt = Query(
                    query.origin,
                    query.destination,
                    free,
                    query.kind,
                    query.query_id,
                )
                route = self._plan_once(attempt, allow_fallback=False)
                if route is not None:
                    if free > release:
                        self.stats.start_delays += 1
                    return route
                t = free + 1
        finally:
            self.timers.total += _time.perf_counter() - started
            self.timers.queries += 1

    def plan_fallback_only(
        self, query: Query, max_start_delay: Optional[int] = None
    ) -> Optional[Route]:
        """One expansion-bounded grid-level A* shot, skipping strip search.

        The last answering rung of the service degradation ladder: when
        the deadline budget is too small for the full SRP pipeline, a
        single space-time A* against the stores still produces a
        collision-free (if not strip-optimal) route.  The shot is taken
        at the first second within ``max_start_delay`` (default the
        planner's own) at which the origin cell is free; returns
        ``None`` when no such second exists or A* exhausts its budget.
        Successful routes are committed exactly like :meth:`plan`
        results.
        """
        self._check_query(query)
        self.stats.queries += 1
        window = self.max_start_delay if max_start_delay is None else max_start_delay
        origin_strip, origin_pos = self.graph.locate(query.origin)
        store = self.stores[origin_strip]
        started = _time.perf_counter()
        try:
            release = query.release_time
            t = store.clear_entry_time(origin_pos, release, release + window)
            if t is None:
                return None
            attempt = Query(
                query.origin, query.destination, t, query.kind, query.query_id
            )
            route = self._plan_fallback(attempt)
            if route is not None and t > release:
                self.stats.start_delays += 1
            return route
        finally:
            self.timers.total += _time.perf_counter() - started
            self.timers.queries += 1

    def reset(self) -> None:
        self.stores.clear()
        self.crossings.clear()
        self.distance_maps.clear()
        self._commits.clear()
        self._revisions.clear()
        self._boundary_claims.clear()
        self.blockages.clear()
        self.stats.reset()
        self.timers.reset()

    def prune(self, before: int) -> None:
        """Drop bookkeeping of routes that finished before ``before``."""
        self.stores.prune(before)
        self.crossings.prune(before)
        for query_id in [
            q for q, rec in self._commits.items()
            if rec.route.finish_time < before
        ]:
            del self._commits[query_id]
        if self.blockages:
            self.blockages = [b for b in self.blockages if b[2] >= before]

    def take_revisions(self) -> Dict[int, Route]:
        """Routes rewritten by recovery replans since the last call."""
        revisions, self._revisions = self._revisions, {}
        return revisions

    def planning_state(self) -> object:
        """MC counts the traffic-scaling state: stores + crossing events."""
        return (self.stores, self.crossings)

    # ------------------------------------------------------------------
    # Recovery / execution-disturbance API
    # ------------------------------------------------------------------
    def committed_route(self, query_id: int) -> Optional[Route]:
        """The current full route committed for ``query_id`` (or None)."""
        record = self._commits.get(query_id)
        return None if record is None else record.route

    def cell_occupied(self, cell: Grid, t: int) -> bool:
        """True when committed traffic claims ``cell`` at time ``t``.

        Used by fault injection to decide whether a transient blockage
        can land on a cell: debris cannot materialise under a robot, and
        a blockage overlapping a robot's standing presence could never
        be recovered from (the robot's hold would conflict forever).
        """
        strip_idx, pos = self.graph.locate(cell)
        return self.stores[strip_idx].occupied(pos, t)

    def commit_blockage(self, cell: Grid, t0: int, t1: int) -> None:
        """Reserve ``cell`` over ``[t0, t1]`` as an exogenous obstacle.

        Used by fault injection for transient cell blockages (debris, a
        dead robot, a human in the aisle): future queries plan around it
        exactly like committed traffic.  Blockages are recorded on
        :attr:`blockages` so the post-run state audit can tell them
        apart from route traffic; they expire via :meth:`prune` like any
        other finished segment.
        """
        if not self.warehouse.in_bounds(cell):
            raise InvalidQueryError(f"blockage cell {cell} is out of bounds")
        if t1 < t0:
            raise InvalidQueryError(f"blockage window [{t0}, {t1}] runs backwards")
        strip_idx, pos = self.graph.locate(cell)
        self.stores.materialize(strip_idx).insert(Segment(t0, pos, t1, pos))
        self.blockages.append((cell, t0, t1))

    def recovery_checker(self) -> SegmentStoreChecker:
        """A grid-level conflict checker over the live committed state.

        Exposes the planner's segment stores and crossing ledger through
        the :class:`~repro.pathfinding.space_time_astar.ConflictChecker`
        protocol, so joint recovery can run CBS over a conflict cluster
        against everything *outside* the cluster exactly as committed
        (the cluster's own suffixes are decommitted first).
        """
        return SegmentStoreChecker(self.graph, self.stores, self.crossings)

    def decommit_for_recovery(self, query_id: int, cell: Grid, now: int) -> int:
        """Strip a route back to its executed prefix ahead of joint recovery.

        Joint cluster recovery (:mod:`repro.simulation.recovery`)
        decommits *every* member's unexecuted suffix before replanning
        any of them, so no member plans around a doomed suffix of
        another.  The robot must stand at ``cell`` (the route's position
        at ``now``).  The commit record's route becomes the executed
        prefix and is recorded as a revision; a follow-up
        :meth:`replan_from` with ``decommitted=True`` or a
        :meth:`commit_recovered_route` completes the recovery.  Calling
        it again at the same instant removes nothing (idempotent).

        Returns the number of store removals performed (also accumulated
        on ``stats.decommitted_segments``).
        """
        record = self._commits.get(query_id)
        if record is None:
            raise InvalidQueryError(
                f"query {query_id} has no committed route to recover"
            )
        route = record.route
        expected = route.position_at(now)
        if cell != expected:
            raise InvalidQueryError(
                f"query {query_id}: robot reported at {cell} but its route "
                f"puts it at {expected} at t={now}"
            )
        removed = self._decommit_suffix(record, now)
        record.route = self._executed_prefix(route, now, cell)
        self._revisions[query_id] = record.route
        return removed

    def commit_recovery_hold(
        self, query_id: int, cell: Grid, now: int, until: int
    ) -> None:
        """Commit the standing presence of a decommitted cluster member.

        After :meth:`decommit_for_recovery` strips a member back to its
        executed prefix, the robot still physically stands at ``cell``
        until at least ``until`` — but that presence no longer exists in
        the segment stores, so cluster members replanned *before* it
        would happily route straight through its stop cell (and the
        joint cascade would chase the resulting conflict forever).  This
        commits the forced hold ``[anchor, until]`` as an ordinary
        claim; the member's own replan removes it first via
        :meth:`release_recovery_hold`.  Idempotent while held.
        """
        if query_id in self._recovery_holds:
            return
        record = self._commits.get(query_id)
        if record is None:
            raise InvalidQueryError(
                f"query {query_id} has no committed route to recover"
            )
        expected = record.route.position_at(now)
        if cell != expected:
            raise InvalidQueryError(
                f"query {query_id}: robot reported at {cell} but its route "
                f"puts it at {expected} at t={now}"
            )
        anchor = max(now, record.route.start_time)
        strip_idx, pos = self.graph.locate(cell)
        hold = Segment(anchor, pos, max(until, anchor), pos)
        self.stores.materialize(strip_idx).insert(hold, query_id)
        self._recovery_holds[query_id] = (strip_idx, hold)

    def release_recovery_hold(self, query_id: int) -> None:
        """Remove the hold committed by :meth:`commit_recovery_hold`.

        No-op when no hold is outstanding for ``query_id``.
        """
        held = self._recovery_holds.pop(query_id, None)
        if held is not None:
            self.stores.remove(held[0], held[1])

    # ------------------------------------------------------------------
    # Two-phase boundary commit (region-sharded cross-region planning)
    # ------------------------------------------------------------------
    def abort_commit(self, query_id: int) -> int:
        """Remove *everything* ``query_id`` committed — the exact inverse.

        The rollback half of the sharded two-phase commit: every store
        insertion and crossing key recorded for the query is removed (an
        exact inverse — ``remove()`` undoes one insertion, and the
        record is a multiset view of them), leaving segment stores and
        the crossing ledger with their pre-commit content.  Any
        outstanding boundary claims are released too.  Returns the
        number of store removals.
        """
        removed = self.release_boundary_claims(query_id)
        record = self._commits.pop(query_id, None)
        if record is None:
            if removed:
                return removed
            raise InvalidQueryError(
                f"query {query_id} has no committed route to abort"
            )
        for strip_idx, seg in record.segments:
            self.stores.remove(strip_idx, seg)
            removed += 1
        for key in record.crossings:
            self.crossings.remove_key(key)
        self.stats.decommitted_segments += removed
        return removed

    def claim_boundary_hold(
        self, query_id: int, cell: Grid, t0: int, t1: int
    ) -> bool:
        """Claim a standing presence at a boundary cell over ``[t0, t1]``.

        The *prepare* half-step of a cross-region hand-off: the robot
        arrives at the boundary cell at ``t0`` but its onward leg only
        departs at ``t1 + 1``, so the gap must be visibly reserved (the
        sharded analogue of :meth:`commit_recovery_hold`).  The claim
        only succeeds when the whole window is free; on refusal nothing
        is inserted and the coordinator aborts the transaction.  Claims
        are transient until :meth:`bind_boundary_claims` folds them into
        the query's commit record or :meth:`release_boundary_claims`
        rolls them back.
        """
        if t1 < t0:
            return True  # empty window: the leg departs immediately
        strip_idx, pos = self.graph.locate(cell)
        store = self.stores[strip_idx]
        if len(store) != 0 and store.first_occupied(pos, t0, t1) is not None:
            return False
        hold = Segment(t0, pos, t1, pos)
        self.stores.materialize(strip_idx).insert(hold, query_id)
        self._boundary_claims.setdefault(query_id, ([], []))[0].append(
            (strip_idx, hold)
        )
        return True

    def claim_boundary_crossing(self, query_id: int, key: CrossingKey) -> bool:
        """Claim an inter-region boundary crossing event.

        Registers ``(from_cell, to_cell, t)`` in this shard's ledger so
        later local plans cannot commit the opposing swap.  Refused (and
        nothing registered) when the exact reverse crossing is already
        committed — the coordinator then aborts and retries elsewhere.
        Both shards adjacent to a boundary claim the same key, keeping
        each ledger self-contained for the per-shard audit.
        """
        if (key[1], key[0], key[2]) in self.crossings:
            return False
        self.crossings.add_key(key)
        self._boundary_claims.setdefault(query_id, ([], []))[1].append(key)
        return True

    def bind_boundary_claims(self, query_id: int) -> None:
        """The *commit* phase: make outstanding claims permanent.

        Folds the query's boundary holds and crossing keys into its
        commit record, so later :meth:`prune` / :meth:`abort_commit` /
        recovery decommits treat them exactly like route artifacts.
        No-op when the query has no outstanding claims.
        """
        claims = self._boundary_claims.pop(query_id, None)
        if claims is None:
            return
        record = self._commits.get(query_id)
        if record is None:
            raise InvalidQueryError(
                f"query {query_id} has boundary claims but no commit record"
            )
        record.segments.extend(claims[0])
        record.crossings.extend(claims[1])

    def release_boundary_claims(self, query_id: int) -> int:
        """The *abort* phase for claims: exact rollback of prepare.

        Removes every outstanding boundary hold and crossing key claimed
        for ``query_id``.  Returns the number of store removals; no-op
        (returning 0) when nothing is outstanding.
        """
        claims = self._boundary_claims.pop(query_id, None)
        if claims is None:
            return 0
        removed = 0
        for strip_idx, seg in claims[0]:
            self.stores.remove(strip_idx, seg)
            removed += 1
        for key in claims[1]:
            self.crossings.remove_key(key)
        self.stats.decommitted_segments += removed
        return removed

    def commit_recovered_route(
        self, query_id: int, cell: Grid, now: int, suffix: Route
    ) -> Route:
        """Commit an externally planned recovery suffix for ``query_id``.

        The counterpart of :meth:`decommit_for_recovery` for recoveries
        whose new route was *not* produced by this planner's ladder: a
        CBS solution over a conflict cluster, or a slowdown-stretched
        copy of the robot's own suffix.  ``suffix`` must start at
        ``cell`` (where the robot stands at ``now``), depart no earlier
        than the committed anchor (claims never extend backward past the
        committed start time), and end at the query's destination.  The
        suffix's segments and crossings are committed verbatim; a
        hold-in-place segment covers any gap between the anchor and the
        suffix's departure so the standing robot stays visible.

        Returns the revised full route (executed prefix + suffix), also
        exposed through :meth:`take_revisions`.
        """
        record = self._commits.get(query_id)
        if record is None:
            raise InvalidQueryError(
                f"query {query_id} has no committed route to recover"
            )
        expected = record.route.position_at(now)
        if cell != expected:
            raise InvalidQueryError(
                f"query {query_id}: robot reported at {cell} but its route "
                f"puts it at {expected} at t={now}"
            )
        if suffix.origin != cell:
            raise InvalidQueryError(
                f"query {query_id}: recovered suffix starts at {suffix.origin}, "
                f"but the robot stands at {cell}"
            )
        if suffix.destination != record.query.destination:
            raise InvalidQueryError(
                f"query {query_id}: recovered suffix ends at "
                f"{suffix.destination}, not the committed destination "
                f"{record.query.destination}"
            )
        anchor = max(now, record.route.start_time)
        undeparted = now < record.route.start_time
        if suffix.start_time < anchor:
            raise InvalidQueryError(
                f"query {query_id}: recovered suffix departs at "
                f"{suffix.start_time}, before the committed anchor {anchor}"
            )
        self.stats.replan_attempts += 1
        started = _time.perf_counter()
        try:
            prefix = self._executed_prefix(record.route, now, cell)
            strip_idx, pos = self.graph.locate(cell)
            conv_started = _time.perf_counter()
            segments, crossings = route_to_strip_artifacts(self.graph, suffix)
            self.stats.conversion_time += _time.perf_counter() - conv_started
            for seg_strip, segment in segments:
                self.stores.materialize(seg_strip).insert(segment, query_id)
            self.crossings.update(crossings)
            record.segments.extend(segments)
            record.crossings.extend(crossings)
            if suffix.start_time > anchor and not undeparted:
                hold = Segment(anchor, pos, suffix.start_time, pos)
                self.stores.materialize(strip_idx).insert(hold, query_id)
                record.segments.append((strip_idx, hold))
            # A parked robot (disturbed before departure) has no executed
            # history and leaves its pre-departure parking unreserved, so
            # its revised route is the suffix alone.
            revised = suffix if undeparted else concatenate_routes(prefix, suffix)
            record.route = revised
            self._revisions[query_id] = revised
            return revised
        finally:
            self.timers.total += _time.perf_counter() - started
            self.timers.queries += 1

    def replan_from(
        self,
        query_id: int,
        cell: Grid,
        now: int,
        hold_until: Optional[int] = None,
        *,
        decommitted: bool = False,
    ) -> Route:
        """Recover the route of ``query_id`` after an execution disturbance.

        The robot executing the route stopped at ``cell`` at time
        ``now`` (a stall, or a stop forced by another robot's stall) and
        cannot move again before ``hold_until`` (default ``now + 1``).
        Recovery proceeds in three steps:

        1. **decommit** — the not-yet-executed suffix (everything after
           ``now``) of the committed route is removed from the segment
           stores and the crossing ledger; segments spanning ``now`` are
           truncated to their executed prefix.
        2. **hold** — the robot's standing presence at ``cell`` from
           ``now`` until the recovered route departs is committed, so
           queries planned meanwhile route around the stopped robot.
        3. **replan** — a fresh route from ``cell`` to the original
           destination, released no earlier than ``hold_until``, found
           by a graceful-degradation ladder: the strip-level search
           across the release-delay window, then one
           expansion-bounded grid A* shot, then bounded wait-and-retry
           at coarser delays (:attr:`recovery_backoff`).

        Returns the *revised full route* (executed prefix + hold + new
        plan), also exposed through :meth:`take_revisions`.  On failure
        raises :class:`PlanningFailedError` carrying the query id, the
        release time, the deepest ladder rung reached and the expansions
        spent; the robot's residual hold stays committed so the planner
        state remains consistent with a robot abandoned in place.

        With ``decommitted=True`` the suffix was already stripped by
        :meth:`decommit_for_recovery` (joint cluster recovery): the
        decommit step is skipped, the committed route is expected to be
        the executed prefix (so the finished-route check is waived) and
        the replan targets the original query destination.
        """
        record = self._commits.get(query_id)
        if record is None:
            raise InvalidQueryError(
                f"query {query_id} has no committed route to recover"
            )
        route = record.route
        if not decommitted and now >= route.finish_time:
            raise InvalidQueryError(
                f"query {query_id}: route already finished at t={route.finish_time}"
            )
        expected = route.position_at(now)
        if cell != expected:
            raise InvalidQueryError(
                f"query {query_id}: robot reported at {cell} but its route "
                f"puts it at {expected} at t={now}"
            )
        # A route disturbed before its departure belongs to a *parked*
        # robot (it never moved, DESIGN.md §4 leaves parked presence
        # unreserved): its recovery simply delays the departure, with no
        # standing hold at all.  Fabricating one would claim a shared
        # station cell two parked robots can legally pipeline through —
        # and two forced holds on one cell can never be replanned apart,
        # so the recovery cascade would chase that conflict forever.
        undeparted = now < route.start_time
        anchor = max(now, route.start_time)
        release = max(anchor, now + 1, now + 1 if hold_until is None else hold_until)
        destination = record.query.destination if decommitted else route.destination
        self.stats.replans += 1
        self.stats.replan_attempts += 1
        expansions_before = self.stats.intra_expansions
        started = _time.perf_counter()
        try:
            if not decommitted:
                self._decommit_suffix(record, now)
            prefix = self._executed_prefix(route, now, cell)
            strip_idx, pos = self.graph.locate(cell)
            replan_query = Query(
                cell, destination, release, record.query.kind, query_id
            )
            new_route, phase = self._recovery_ladder(replan_query, strip_idx, pos)
            if new_route is None:
                if undeparted:
                    # Parked robot: it just stays parked (non-blocking).
                    record.route = Route(release, [cell], query_id=query_id)
                else:
                    # Leave a residual hold over the forced-stop window so
                    # the stranded robot's presence survives in the stores.
                    hold = Segment(anchor, pos, release, pos)
                    self.stores.materialize(strip_idx).insert(hold, query_id)
                    record.segments.append((strip_idx, hold))
                    record.route = concatenate_routes(
                        prefix, Route(release, [cell], query_id=query_id)
                    )
                self._revisions[query_id] = record.route
                self.timers.failures += 1
                raise PlanningFailedError(
                    f"recovery of query {query_id} found no route from "
                    f"{cell} to {destination}",
                    query_id=query_id,
                    release_time=release,
                    phase=phase,
                    expansions=self.stats.intra_expansions - expansions_before,
                )
            # The ladder's successful attempt wrote a fresh commit record
            # holding only the new plan's artifacts; fold it back into the
            # original record together with the hold-in-place presence
            # (departed robots only — a parked robot's route and claims
            # both begin at the delayed departure).
            new_record = self._commits[query_id]
            record.segments.extend(new_record.segments)
            if undeparted:
                revised = new_route
            else:
                hold = Segment(anchor, pos, new_route.start_time, pos)
                self.stores.materialize(strip_idx).insert(hold, query_id)
                record.segments.append((strip_idx, hold))
                revised = concatenate_routes(prefix, new_route)
            record.crossings.extend(new_record.crossings)
            record.route = revised
            self._commits[query_id] = record
            self._revisions[query_id] = revised
            return revised
        finally:
            self.timers.total += _time.perf_counter() - started
            self.timers.queries += 1

    def _recovery_ladder(
        self, query: Query, origin_strip: int, origin_pos: int
    ) -> Tuple[Optional[Route], str]:
        """The graceful-degradation ladder behind :meth:`replan_from`.

        Returns ``(route_or_None, deepest_phase_reached)``; phases are
        ``"strip"`` -> ``"fallback"`` -> ``"wait-retry"``.
        """
        store = self.stores[origin_strip]
        release = query.release_time
        # Rung 1: strip-level search across the release-delay window.
        phase = "strip"
        free_seconds: List[int] = []
        for delay in range(self.max_start_delay + 1):
            t = release + delay
            if store.occupied(origin_pos, t):
                continue
            free_seconds.append(t)
            attempt = Query(query.origin, query.destination, t, query.kind, query.query_id)
            route = self._plan_once(attempt, allow_fallback=False)
            if route is not None:
                return route, phase
        # Rung 2: one expansion-bounded grid A* shot at the first free second.
        phase = "fallback"
        if free_seconds:
            attempt = Query(
                query.origin, query.destination, free_seconds[0], query.kind, query.query_id
            )
            route = self._plan_fallback(attempt)
            if route is not None:
                return route, phase
        # Rung 3: bounded wait-and-retry — transient congestion around a
        # disturbance often clears within tens of seconds.
        phase = "wait-retry"
        for extra in self.recovery_backoff:
            t = release + self.max_start_delay + extra
            if store.occupied(origin_pos, t):
                continue
            attempt = Query(query.origin, query.destination, t, query.kind, query.query_id)
            route = self._plan_once(attempt, allow_fallback=True)
            if route is not None:
                return route, phase
        return None, phase

    def _decommit_suffix(self, record: CommitRecord, now: int) -> int:
        """Remove the not-yet-executed (``t > now``) part of a route.

        Stored segments entirely in the future are removed; segments
        spanning ``now`` are replaced by their executed prefix.  Returns
        the number of store removals.
        """
        surviving: List[Tuple[int, Segment]] = []
        removed = 0
        for strip_idx, seg in record.segments:
            if seg.t1 <= now:
                surviving.append((strip_idx, seg))
                continue
            self.stores.remove(strip_idx, seg)
            removed += 1
            if seg.t0 <= now:
                kept = Segment(seg.t0, seg.p0, now, seg.position_at(now))
                self.stores.materialize(strip_idx).insert(kept, record.query.query_id)
                surviving.append((strip_idx, kept))
        record.segments = surviving
        kept_keys: List[CrossingKey] = []
        for key in record.crossings:
            if key[2] > now:
                self.crossings.remove_key(key)
            else:
                kept_keys.append(key)
        record.crossings = kept_keys
        self.stats.decommitted_segments += removed
        return removed

    @staticmethod
    def _executed_prefix(route: Route, now: int, cell: Grid) -> Route:
        """The part of ``route`` the robot executed up to time ``now``."""
        if now <= route.start_time:
            # Stopped before departure: the robot stands at its origin,
            # and the revised route keeps the committed start time (its
            # claims never extend backward past the original start).
            return Route(route.start_time, [route.grids[0]], query_id=route.query_id)
        cut = min(now, route.finish_time) - route.start_time
        prefix = Route(
            route.start_time, list(route.grids[: cut + 1]), query_id=route.query_id
        )
        assert prefix.destination == cell
        return prefix

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_query(self, query: Query) -> None:
        for label, cell in (("origin", query.origin), ("destination", query.destination)):
            if not self.warehouse.in_bounds(cell):
                raise InvalidQueryError(f"{label} {cell} is out of bounds")
            if self.region is not None and not self.region[
                self.graph.strip_index_of(cell)
            ]:
                raise InvalidQueryError(
                    f"{label} {cell} is outside this planner's region"
                )

    def _commit_plan(self, query: Query, plan: RoutePlan, route: Route) -> None:
        committed: List[Tuple[int, Segment]] = []
        crossing_keys: List[CrossingKey] = []
        for leg in plan.legs:
            store = self.stores.materialize(leg.strip)
            if leg.entry is not None:
                store.insert(leg.entry.point, query.query_id)
                committed.append((leg.strip, leg.entry.point))
                self.crossings.add_key(leg.entry.key)
                crossing_keys.append(leg.entry.key)
            for segment in leg.segments:
                store.insert(segment, query.query_id)
                committed.append((leg.strip, segment))
        committed.append(self._commit_origin_presence(route))
        if query.query_id >= 0:
            self._commits[query.query_id] = CommitRecord(
                query, route, committed, crossing_keys
            )

    def _commit_origin_presence(self, route: Route) -> Tuple[int, Segment]:
        """Reserve the origin cell for the route's initial standing span.

        A route that leaves its origin cell immediately produces no leg
        segment there (the paper's footnote-1 "single point" case), and
        a rack-origin route waits under its rack outside any leg; both
        occupancies must still be visible to later queries.  Returns the
        ``(strip, segment)`` pair for the caller's commit record.
        """
        origin = route.grids[0]
        depart = 0
        while depart + 1 < len(route.grids) and route.grids[depart + 1] == origin:
            depart += 1
        strip_idx, pos = self.graph.locate(origin)
        presence = Segment(route.start_time, pos, route.start_time + depart, pos)
        self.stores.materialize(strip_idx).insert(presence, route.query_id)
        return strip_idx, presence

    @property
    def n_segments(self) -> int:
        """Total committed segments across all strips (memory proxy)."""
        return self.stores.total_segments()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SRPPlanner(warehouse={self.warehouse.name!r}, "
            f"store={self.store_kind!r}, layout={self.store_layout!r}, "
            f"strips={self.graph.n_vertices})"
        )
