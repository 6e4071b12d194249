"""Region-sharded planning: per-region worker processes + boundary 2PC.

The strip decomposition is naturally partitionable — strips only
interact at shared crossings — so the planner scales horizontally by
cutting the warehouse into K contiguous row bands along full-width
aisle rows (the latitudinal strips of Algorithm 1; longitudinal strips
never span one, so a cut splits no strip).  Each band becomes a
*shard*: a worker process owning a region-restricted
:class:`~repro.core.planner.SRPPlanner` — its own segment stores,
and crossing ledger — driven over a pipe with the service's
strict JSON-line codec (:mod:`repro.service.protocol`).

The frontend :class:`ShardedPlanner` classifies queries by the region
of their endpoints:

* **intra-region** queries are forwarded whole to the owning shard;
* **cross-region** queries are decomposed at boundary strips and
  executed under a two-phase commit.  *Prepare* plans one leg per
  region and tentatively commits it, together with a *standing boundary
  hold* covering the hand-off gap (the robot arrives at the boundary
  cell before its onward leg departs — the sharded analogue of PR 7's
  recovery pre-holds) and the inter-region crossing key, claimed in
  **both** adjacent shards' ledgers so each remains self-contained for
  swap detection and the per-shard audit.  *Commit* binds the claims
  into the query's commit record; *abort* rolls every prepared shard
  back via the exact decommit inverse
  (:meth:`~repro.core.planner.SRPPlanner.abort_commit`), then the
  router retries at another boundary column / bumped release, or gives
  up and lets the service ladder degrade the rung.

**Determinism.**  Partitioning is a pure function of (warehouse, K);
every worker is a deterministic planner over its region; the router's
attempt schedule is fixed.  A single-worker shard (``workers=1``) is
*bit-for-bit* the unsharded planner — the region mask is ``None`` and
the code path identical — so recorded sessions replay exactly.  With
K > 1, concurrent dispatch interleaves shard commits, so multi-worker
runs are reproducible per shard but not across wall-clock runs (see
docs/service.md).  This module is inside srplint's SRP003 determinism
scope: no wall clock (``perf_counter`` timer spans only), no
randomness, no unordered-set iteration.
"""

from __future__ import annotations

import json
import multiprocessing
import threading
import time as _time
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.planner import SRPPlanner
from repro.core.strips import StripGraph, build_strip_graph
from repro.exceptions import InvalidQueryError, PlanningFailedError
from repro.planner_base import Planner
from repro.service.core import Rung, plan_at_rung
from repro.service.protocol import (
    ProtocolError,
    decode_route,
    encode_message,
    encode_route,
    parse_message_line,
)
from repro.types import Grid, Query, QueryKind, Route, concatenate_routes
from repro.warehouse.matrix import Warehouse

#: first request id handed to anonymous (query_id < 0) cross-region
#: queries — the two-phase commit needs a per-shard commit handle, and
#: service request ids stay far below this
_ANON_ID_BASE = 1 << 40

#: router attempt schedule for one cross-region transaction: pairs of
#: (boundary-column choice index, release bump).  Fixed order keeps the
#: retry ladder deterministic.
_CROSS_ATTEMPTS: Tuple[Tuple[int, int], ...] = (
    (0, 0),
    (1, 0),
    (0, 4),
    (2, 0),
    (1, 4),
    (0, 12),
)


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RegionPartition:
    """K contiguous row bands cut along full-width aisle rows.

    ``bounds[r]`` is the inclusive ``(first_row, last_row)`` of region
    ``r`` (ordered north to south); every cut row — the last row of each
    region but the southmost — is a fully rack-free latitudinal aisle
    strip, so no strip spans two regions.  ``strip_region[s]`` maps
    strip index to its region; ``boundary_columns[b]`` lists, for the
    boundary between regions ``b`` and ``b + 1``, the columns where both
    boundary cells are rack-free (the legal hand-off columns).
    """

    k: int
    bounds: Tuple[Tuple[int, int], ...]
    strip_region: Tuple[int, ...]
    boundary_columns: Tuple[Tuple[int, ...], ...]

    def region_of_row(self, row: int) -> int:
        starts = [lo for lo, _hi in self.bounds]
        region = bisect_right(starts, row) - 1
        if region < 0 or row > self.bounds[region][1]:
            raise InvalidQueryError(f"row {row} outside the partitioned warehouse")
        return region

    def region_of_cell(self, cell: Grid) -> int:
        return self.region_of_row(cell[0])

    def mask(self, region: int) -> Tuple[bool, ...]:
        """Per-strip admissibility mask of one region (planner input)."""
        return tuple(r == region for r in self.strip_region)


def compute_partition(
    warehouse: Warehouse, graph: StripGraph, k: int
) -> RegionPartition:
    """Cut the strip graph into ``k`` row bands balancing strip count.

    Candidate cuts are full-width rack-free rows (each is one
    latitudinal strip, and longitudinal strips stop at them — Algorithm
    1's latitudinal pass — so any such cut splits no strip) that admit
    at least one boundary column.  The ``k - 1`` cuts are chosen
    greedily nearest the ideal cumulative strip-count boundaries; ties
    break toward the smaller row.  ``k`` is clamped to the number of
    usable cuts plus one, so the returned partition's ``k`` may be
    smaller than requested.  Deterministic: a pure function of
    ``(warehouse, k)``, computed identically by the frontend router and
    every worker.
    """
    if k < 1:
        raise ValueError(f"partition needs at least one region, got k={k}")
    racks = warehouse.racks
    height, width = warehouse.height, warehouse.width
    candidates: List[Tuple[int, Tuple[int, ...]]] = []
    for row in range(height - 1):
        if racks[row].any():
            continue
        cols = tuple(c for c in range(width) if not racks[row + 1][c])
        if cols:
            candidates.append((row, cols))
    strips_through_row = [0] * height
    for strip in graph.strips:
        strips_through_row[strip.alpha[0]] += 1
    prefix = [0] * height
    running = 0
    for row in range(height):
        running += strips_through_row[row]
        prefix[row] = running
    total = len(graph.strips)
    k = min(k, len(candidates) + 1)
    cut_indices: List[int] = []
    last = -1
    for j in range(1, k):
        ideal = total * j // k
        # Leave enough later candidates for the remaining cuts.
        hi = len(candidates) - (k - 1 - j)
        best_idx = -1
        best_key: Optional[Tuple[int, int]] = None
        for idx in range(last + 1, hi):
            row = candidates[idx][0]
            key = (abs(prefix[row] - ideal), row)
            if best_key is None or key < best_key:
                best_key = key
                best_idx = idx
        cut_indices.append(best_idx)
        last = best_idx
    cut_rows = [candidates[i][0] for i in cut_indices]
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for row in cut_rows:
        bounds.append((lo, row))
        lo = row + 1
    bounds.append((lo, height - 1))
    starts = [b[0] for b in bounds]

    def region_of_row(row: int) -> int:
        return bisect_right(starts, row) - 1

    strip_region = tuple(region_of_row(s.alpha[0]) for s in graph.strips)
    boundary_columns = tuple(candidates[i][1] for i in cut_indices)
    return RegionPartition(k, tuple(bounds), strip_region, boundary_columns)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class ShardWorker:
    """The transport-agnostic core of one region worker.

    Owns a region-restricted :class:`SRPPlanner` and handles decoded
    shard-protocol messages; :meth:`handle` never raises — anything
    malformed or invalid becomes a structured ``{"status": "error"}``
    reply, so a bad message cannot kill the worker.  One instance is
    driven either in-process (:class:`InlineShard`, tests and
    determinism harnesses) or from :func:`_shard_worker_main` inside a
    spawned worker process.
    """

    def __init__(
        self,
        warehouse: Warehouse,
        shard_id: int,
        k: int,
        planner_kwargs: Optional[Dict[str, Any]] = None,
        partition: Optional[RegionPartition] = None,
    ) -> None:
        self.shard_id = shard_id
        if partition is None:
            partition = compute_partition(warehouse, build_strip_graph(warehouse), k)
        self.partition = partition
        if not 0 <= shard_id < partition.k:
            raise ValueError(f"shard {shard_id} outside partition of {partition.k}")
        region = partition.mask(shard_id) if partition.k > 1 else None
        self.planner = SRPPlanner(warehouse, region=region, **(planner_kwargs or {}))

    # -- op handlers ---------------------------------------------------
    def handle(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        op = msg.get("op")
        handler = getattr(self, "_op_" + str(op), None)
        if handler is None:
            return {"status": "error", "note": f"unknown shard op {op!r}"}
        try:
            return handler(msg)
        except InvalidQueryError as exc:
            return {"status": "error", "note": str(exc)}
        except (KeyError, TypeError, ValueError) as exc:
            return {"status": "error", "note": f"malformed {op} message: {exc!r}"}

    @staticmethod
    def _query_of(msg: Dict[str, Any]) -> Query:
        origin = msg["origin"]
        dest = msg["dest"]
        return Query(
            (int(origin[0]), int(origin[1])),
            (int(dest[0]), int(dest[1])),
            int(msg.get("release", 0)),
            QueryKind.GENERIC,
            int(msg.get("id", -1)),
        )

    def _plan_leg(self, query: Query, msg: Dict[str, Any]) -> Optional[Route]:
        """Plan ``query`` at the message's rung; ``None`` when it fails.

        An unknown rung name raises :class:`ValueError`, which
        :meth:`handle` turns into a structured error reply.
        """
        rung = Rung(str(msg.get("rung", "full")))
        delay = msg.get("delay")
        return plan_at_rung(self.planner, query, rung, None if delay is None else int(delay))

    def _op_ping(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        return {"status": "ok", "shard": self.shard_id}

    def _op_shutdown(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        return {"status": "ok", "shard": self.shard_id}

    def _op_plan(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        route = self._plan_leg(self._query_of(msg), msg)
        if route is None:
            return {"status": "failed", "note": "no route at this rung"}
        return {"status": "ok", "route": encode_route(route)}

    def _op_prepare(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        """Prepare one leg of a cross-region two-phase commit.

        Plans and tentatively commits the leg; for an *entry* leg also
        claims the standing boundary hold over the hand-off gap and the
        inter-region crossing key, and for an *exit* leg the outgoing
        crossing key.  Any refusal rolls the whole prepare back exactly
        (stores bit-identical to their pre-prepare state) and replies
        ``refused`` so the coordinator can abort siblings and retry.
        """
        query = self._query_of(msg)
        if query.query_id < 0:
            return {"status": "error", "note": "prepare requires a query id"}
        planner = self.planner
        route = self._plan_leg(query, msg)
        if route is None:
            return {"status": "refused", "note": "no route at this rung"}
        qid = query.query_id
        try:
            entry = msg.get("entry")
            if entry is not None:
                t_in = int(entry["time"])
                cell = (int(entry["cell"][0]), int(entry["cell"][1]))
                from_cell = (int(entry["from"][0]), int(entry["from"][1]))
                # The onward leg departs at route.start_time >= t_in; the
                # robot stands at the boundary cell for the whole gap.
                if not planner.claim_boundary_hold(qid, cell, t_in, route.start_time - 1):
                    planner.abort_commit(qid)
                    return {"status": "refused", "note": "boundary hold window occupied"}
                if not planner.claim_boundary_crossing(qid, (from_cell, cell, t_in)):
                    planner.abort_commit(qid)
                    return {"status": "refused", "note": "opposing boundary crossing committed"}
            exit_to = msg.get("exit_to")
            if exit_to is not None:
                out_cell = (int(exit_to[0]), int(exit_to[1]))
                key = (route.destination, out_cell, route.finish_time + 1)
                if not planner.claim_boundary_crossing(qid, key):
                    planner.abort_commit(qid)
                    return {"status": "refused", "note": "opposing boundary crossing committed"}
            reply = {
                "status": "ok",
                "route": encode_route(route),
                "arrival": route.finish_time,
            }
        except Exception:
            # A malformed field or codec error *after* the tentative
            # commit must not leak claims: handle() turns the exception
            # into an error reply, and the coordinator only aborts the
            # shards that replied "ok" — this one has to roll itself
            # back before the error propagates.
            planner.abort_commit(qid)
            raise
        # Success intentionally exits with the claims held: they belong
        # to the coordinator now, which resolves them via _op_commit /
        # _op_abort.
        return reply  # srplint: holds(claim_boundary_hold, claim_boundary_crossing) 2PC prepare hands claims to the coordinator

    def _op_commit(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        self.planner.bind_boundary_claims(int(msg["id"]))
        return {"status": "ok"}

    def _op_abort(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        try:
            removed = self.planner.abort_commit(int(msg["id"]))
        except InvalidQueryError:
            removed = 0  # nothing prepared here: abort is idempotent
        return {"status": "ok", "removed": removed}

    def _op_prune(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        self.planner.prune(int(msg["before"]))
        return {"status": "ok"}

    def _op_reset(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        self.planner.reset()
        return {"status": "ok"}

    def _op_stats(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        planner = self.planner
        stats = {
            name: value
            for name, value in sorted(planner.stats.__dict__.items())
            if isinstance(value, (int, float))
        }
        stats["n_segments"] = planner.n_segments
        stats["planner_queries"] = planner.timers.queries
        return {"status": "ok", "shard": self.shard_id, "stats": stats}

    def _op_audit(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        """Audit this shard's stores against full (cross-region) routes."""
        from repro.analysis.validate import audit_planner_state

        routes = [
            decode_route(obj, int(obj.get("query_id", -1)))
            for obj in msg.get("routes", [])
        ]
        region_of = self.partition.region_of_cell
        shard = self.shard_id
        violations = audit_planner_state(
            self.planner,
            routes,
            since=int(msg.get("since", 0)),
            cell_filter=lambda cell: region_of(cell) == shard,
        )
        return {"status": "ok", "violations": violations}


def _shard_worker_main(
    conn: Any,
    warehouse: Warehouse,
    shard_id: int,
    k: int,
    planner_kwargs: Optional[Dict[str, Any]],
) -> None:
    """Entry point of one spawned worker process.

    Serves decoded messages off the pipe until a ``shutdown`` op or the
    frontend closes its end.  A frame the strict codec rejects gets a
    structured error reply — the worker never dies on bad input.
    """
    worker = ShardWorker(warehouse, shard_id, k, planner_kwargs)
    try:
        while True:
            try:
                data = conn.recv_bytes()
            except (EOFError, OSError):
                break
            try:
                msg = parse_message_line(data)
            except ProtocolError as exc:
                conn.send_bytes(encode_message({"status": "error", "note": str(exc)}))
                continue
            reply = worker.handle(msg)
            conn.send_bytes(encode_message(reply))
            if msg.get("op") == "shutdown":
                break
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Shard handles (frontend side)
# ----------------------------------------------------------------------
class InlineShard:
    """In-process shard: the worker runs in the caller's interpreter.

    Every message still round-trips through the strict JSON-line codec,
    so the inline and process transports exercise identical envelopes —
    this is the deterministic harness the tests and single-process
    deployments use.
    """

    def __init__(self, worker: ShardWorker) -> None:
        self.worker = worker
        self._lock = threading.Lock()

    def request(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            try:
                decoded = parse_message_line(encode_message(msg))
            except ProtocolError as exc:
                return {"status": "error", "note": str(exc)}
            reply = self.worker.handle(decoded)
            return dict(json.loads(encode_message(reply)))

    def alive(self) -> bool:
        return False  # no process to leak

    def close(self, timeout: float = 10.0) -> None:
        return None


class ProcessShard:
    """One spawned worker process plus its duplex pipe.

    ``spawn`` context: the child re-imports the package and rebuilds its
    partition/planner from pickled ``(warehouse, shard_id, k)``, so no
    state leaks across the fork boundary and behaviour matches macOS /
    Windows semantics everywhere.  Requests are serialised per shard by
    a lock; :meth:`close` performs the graceful shutdown handshake,
    joins the process (terminating it only if the handshake fails) and
    closes the pipe — no orphaned processes, no leaked descriptors.
    """

    def __init__(
        self,
        warehouse: Warehouse,
        shard_id: int,
        k: int,
        planner_kwargs: Optional[Dict[str, Any]] = None,
    ) -> None:
        ctx = multiprocessing.get_context("spawn")
        parent, child = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_shard_worker_main,
            args=(child, warehouse, shard_id, k, planner_kwargs),
            daemon=True,
            name=f"srp-shard-{shard_id}",
        )
        self.process.start()
        child.close()
        self._conn = parent
        self._lock = threading.Lock()
        self._closed = False

    def request(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        data = encode_message(msg)
        with self._lock:
            if self._closed:
                return {"status": "error", "note": "shard is closed"}
            try:
                self._conn.send_bytes(data)
                raw = self._conn.recv_bytes()
            except (EOFError, OSError) as exc:
                return {"status": "error", "note": f"shard pipe failed: {exc!r}"}
        return dict(json.loads(raw))

    def alive(self) -> bool:
        return self.process.is_alive()

    def close(self, timeout: float = 10.0) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._conn.send_bytes(encode_message({"op": "shutdown"}))
                self._conn.recv_bytes()  # shutdown ack
            except (EOFError, OSError, BrokenPipeError):
                pass
            self._conn.close()
        self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - handshake failed
            self.process.terminate()
            self.process.join(timeout)


# ----------------------------------------------------------------------
# Frontend router
# ----------------------------------------------------------------------
class ShardedPlanner(Planner):
    """Planner facade that routes queries to region shards.

    Implements the full service-facing planner surface (``plan`` /
    ``plan_strip_only`` / ``plan_fallback_only`` / ``prune`` /
    ``reset``) so it drops into :class:`~repro.service.core.ServiceCore`
    unchanged; additionally exposes ``shard_of_query`` (admission-time
    classification), ``shard_stats`` / ``router_stats`` (merged
    telemetry) and ``close`` (worker reaping, wired into the server's
    drain).  Thread-safe: per-shard pipes are serialised by their
    handles and router counters sit behind one lock, so one dispatcher
    thread per shard can plan concurrently.
    """

    name = "SRP-sharded"

    def __init__(
        self,
        warehouse: Warehouse,
        workers: int = 1,
        mode: str = "process",
        planner_kwargs: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__()
        if mode not in ("process", "inline"):
            raise ValueError(f"unknown shard mode {mode!r}; expected process/inline")
        self.warehouse = warehouse
        self.graph: StripGraph = build_strip_graph(warehouse)
        self.partition = compute_partition(warehouse, self.graph, workers)
        #: regions actually created (requested workers clamped to the
        #: number of usable aisle cuts plus one)
        self.shard_count = self.partition.k
        self.mode = mode
        self._planner_kwargs = dict(planner_kwargs or {})
        self._shards: List[Any]
        if mode == "inline":
            self._shards = [
                InlineShard(
                    ShardWorker(
                        warehouse, i, self.shard_count,
                        self._planner_kwargs, partition=self.partition,
                    )
                )
                for i in range(self.shard_count)
            ]
        else:
            self._shards = [
                ProcessShard(warehouse, i, self.shard_count, self._planner_kwargs)
                for i in range(self.shard_count)
            ]
            # Readiness barrier: spawned workers import the package and
            # rebuild their planner before answering; pinging each one
            # (they start concurrently) keeps cold-start latency out of
            # the first real requests.
            for shard in self._shards:
                shard.request({"op": "ping"})
        self._lock = threading.Lock()
        self._anon_id = _ANON_ID_BASE
        self._counters: Dict[str, int] = {
            "intra": 0,
            "cross": 0,
            "cross_committed": 0,
            "cross_failed": 0,
            "aborts": 0,
            "retries": 0,
            "shard_errors": 0,
        }
        self._closed = False

    # -- classification ------------------------------------------------
    def shard_of_query(self, query: Query) -> int:
        """Owning shard (region of the origin); 0 for out-of-bounds."""
        cell = query.origin
        if not self.warehouse.in_bounds(cell):
            return 0  # any shard may answer the invalid-query error
        return self.partition.region_of_cell(cell)

    def _classify(self, query: Query) -> Tuple[int, int]:
        for label, cell in (
            ("origin", query.origin),
            ("destination", query.destination),
        ):
            if not self.warehouse.in_bounds(cell):
                raise InvalidQueryError(f"{label} {cell} is out of bounds")
        return (
            self.partition.region_of_cell(query.origin),
            self.partition.region_of_cell(query.destination),
        )

    def _bump(self, counter: str, by: int = 1) -> None:
        with self._lock:
            self._counters[counter] += by

    # -- Planner interface ---------------------------------------------
    def plan(self, query: Query) -> Route:
        started = _time.perf_counter()
        try:
            route = self._route_query(query, "full", None)
        finally:
            with self._lock:
                self.timers.total += _time.perf_counter() - started
                self.timers.queries += 1
        if route is None:
            with self._lock:
                self.timers.failures += 1
            raise PlanningFailedError(
                f"no collision-free route from {query.origin} to "
                f"{query.destination} across {self.shard_count} shards",
                query_id=query.query_id,
                release_time=query.release_time,
                phase="sharded",
            )
        return route

    def plan_strip_only(
        self, query: Query, max_start_delay: Optional[int] = None
    ) -> Optional[Route]:
        return self._route_query(query, "cached", max_start_delay)

    def plan_fallback_only(
        self, query: Query, max_start_delay: Optional[int] = None
    ) -> Optional[Route]:
        return self._route_query(query, "fallback", max_start_delay)

    def reset(self) -> None:
        self._broadcast({"op": "reset"})
        with self._lock:
            for key in self._counters:
                self._counters[key] = 0
            self._anon_id = _ANON_ID_BASE
        self.timers.reset()

    def prune(self, before: int) -> None:
        self._broadcast({"op": "prune", "before": before})

    def take_revisions(self) -> Dict[int, Route]:
        return {}

    def planning_state(self) -> object:
        return ("sharded", self.shard_count)

    # -- routing -------------------------------------------------------
    def _route_query(
        self, query: Query, rung: str, delay: Optional[int]
    ) -> Optional[Route]:
        origin_region, dest_region = self._classify(query)
        if origin_region == dest_region:
            self._bump("intra")
            msg: Dict[str, Any] = {
                "op": "plan",
                "id": query.query_id,
                "origin": list(query.origin),
                "dest": list(query.destination),
                "release": query.release_time,
                "rung": rung,
            }
            if delay is not None:
                msg["delay"] = delay
            reply = self._shards[origin_region].request(msg)
            status = reply.get("status")
            if status == "ok":
                return decode_route(reply["route"], query.query_id)
            if status == "error":
                self._bump("shard_errors")
                raise InvalidQueryError(str(reply.get("note", "shard error")))
            return None
        return self._plan_cross(query, rung, delay, origin_region, dest_region)

    def _boundary_pair(
        self, region: int, next_region: int, col_choice: int, target_col: int
    ) -> Tuple[Grid, Grid]:
        """The hand-off cells for the boundary between two adjacent bands.

        Candidate columns are ordered by distance to the destination
        column (ties toward the smaller column); ``col_choice`` indexes
        that order so retries walk deterministically through
        alternatives.  Returns ``(exit_cell, entry_cell)`` — exit in
        ``region``, entry in ``next_region``.
        """
        boundary = region if next_region > region else next_region
        cols = self.partition.boundary_columns[boundary]
        ordered = sorted(cols, key=lambda c: (abs(c - target_col), c))
        col = ordered[col_choice % len(ordered)]
        cut_row = self.partition.bounds[boundary][1]
        upper, lower = (cut_row, col), (cut_row + 1, col)
        return (upper, lower) if next_region > region else (lower, upper)

    def _abort(self, prepared: Sequence[int], qid: int) -> None:
        for region in reversed(list(prepared)):
            self._shards[region].request({"op": "abort", "id": qid})
        self._bump("aborts", len(prepared))

    def _plan_cross(
        self,
        query: Query,
        rung: str,
        delay: Optional[int],
        origin_region: int,
        dest_region: int,
    ) -> Optional[Route]:
        self._bump("cross")
        qid = query.query_id
        if qid < 0:
            with self._lock:
                qid = self._anon_id
                self._anon_id += 1
        step = 1 if dest_region > origin_region else -1
        path = list(range(origin_region, dest_region + step, step))
        for attempt, (col_choice, bump) in enumerate(_CROSS_ATTEMPTS):
            if attempt:
                self._bump("retries")
            route = self._try_cross_once(query, qid, rung, delay, path, col_choice, bump)
            if route is not None:
                self._bump("cross_committed")
                return Route(route.start_time, list(route.grids), query.query_id)
        self._bump("cross_failed")
        return None

    def _try_cross_once(
        self,
        query: Query,
        qid: int,
        rung: str,
        delay: Optional[int],
        path: Sequence[int],
        col_choice: int,
        bump: int,
    ) -> Optional[Route]:
        """One full two-phase attempt; None rolls everything back."""
        prepared: List[int] = []
        legs: List[Route] = []
        crossings: List[Tuple[Grid, Grid, int]] = []  # (exit, entry, exit_time)
        leg_origin = query.origin
        release = query.release_time + bump
        entry_info: Optional[Dict[str, Any]] = None
        target_col = query.destination[1]
        for idx, region in enumerate(path):
            last = idx == len(path) - 1
            exit_cell: Optional[Grid] = None
            entry_cell: Optional[Grid] = None
            if last:
                leg_dest = query.destination
            else:
                exit_cell, entry_cell = self._boundary_pair(
                    region, path[idx + 1], col_choice, target_col
                )
                leg_dest = exit_cell
            msg: Dict[str, Any] = {
                "op": "prepare",
                "id": qid,
                "origin": list(leg_origin),
                "dest": list(leg_dest),
                "release": release,
                "rung": rung,
            }
            if delay is not None:
                msg["delay"] = delay
            if entry_info is not None:
                msg["entry"] = entry_info
            if entry_cell is not None:
                msg["exit_to"] = list(entry_cell)
            reply = self._shards[region].request(msg)
            status = reply.get("status")
            if status == "error":
                self._bump("shard_errors")
                self._abort(prepared, qid)
                raise InvalidQueryError(str(reply.get("note", "shard error")))
            if status != "ok":
                self._abort(prepared, qid)
                return None
            prepared.append(region)
            legs.append(decode_route(reply["route"], qid))
            if not last:
                arrival = int(reply["arrival"])
                assert exit_cell is not None and entry_cell is not None
                crossings.append((exit_cell, entry_cell, arrival))
                entry_info = {
                    "from": list(exit_cell),
                    "cell": list(entry_cell),
                    "time": arrival + 1,
                }
                leg_origin = entry_cell
                release = arrival + 1
        for region in prepared:
            self._shards[region].request({"op": "commit", "id": qid})
        full = legs[0]
        for (exit_cell, entry_cell, exit_time), leg in zip(crossings, legs[1:]):
            bridge = Route(exit_time, [exit_cell, entry_cell], qid)
            full = concatenate_routes(full, bridge)
            full = concatenate_routes(full, leg)
        return full

    # -- telemetry / lifecycle -----------------------------------------
    def shard_stats(self) -> List[Dict[str, Any]]:
        """Per-shard planner counters (one stats op per worker)."""
        out: List[Dict[str, Any]] = []
        for shard in self._shards:
            reply = shard.request({"op": "stats"})
            if reply.get("status") == "ok":
                out.append({"shard": reply.get("shard"), **reply.get("stats", {})})
            else:
                out.append({"error": reply.get("note", "stats failed")})
        return out

    def router_stats(self) -> Dict[str, int]:
        with self._lock:
            stats = dict(self._counters)
        stats["shard_count"] = self.shard_count
        return stats

    def audit(self, routes: Sequence[Route], since: int = 0) -> List[str]:
        """Run the store/crossing audit on every shard; merged findings."""
        encoded = [
            {**encode_route(route), "query_id": route.query_id} for route in routes
        ]
        violations: List[str] = []
        for idx, shard in enumerate(self._shards):
            reply = shard.request({"op": "audit", "routes": encoded, "since": since})
            if reply.get("status") != "ok":
                violations.append(f"shard {idx}: audit failed: {reply.get('note')}")
                continue
            violations.extend(f"shard {idx}: {v}" for v in reply.get("violations", ()))
        return violations

    def _broadcast(self, msg: Dict[str, Any]) -> None:
        for shard in self._shards:
            shard.request(msg)

    def workers_alive(self) -> int:
        """Live worker processes (0 for inline shards) — drain check."""
        return sum(1 for shard in self._shards if shard.alive())

    def close(self, timeout: float = 10.0) -> None:
        """Shut down and join every worker; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for shard in self._shards:
            shard.close(timeout)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedPlanner(shards={self.shard_count}, mode={self.mode!r}, "
            f"warehouse={self.warehouse.name!r})"
        )
