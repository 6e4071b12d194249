"""End-to-end route search over the strip graph (Section VI, Algorithm 4).

The inter-strip level runs a time-dependent Dijkstra over aisle strips.
Whenever it relaxes an edge it calls the intra-strip planner to learn
how long crossing the current strip actually takes given the committed
traffic — the paper's "edge weight calculated by intra-strip route
planning".  Transit between strips follows the greedy rule of Fig. 10:
cross at the adjacent grid pair nearest to the robot's current position.

Rack strips are never traversed; they participate only as route
endpoints (a robot slides sideways from the neighbouring aisle under
the rack).

**Boundary semantics.**  Strips partition the grid, so the per-strip
segment stores cannot see conflicts that happen *on* a strip boundary.
Crossing into a strip therefore produces two artefacts:

* a point segment at the arrival cell and second, making the arrival
  visible to vertex-conflict checks inside the target strip; and
* a *crossing event* ``(from_cell, to_cell, t)`` in a planner-global
  set, which detects the boundary swap ``(g -> g')`` against
  ``(g' -> g)`` exactly (two robots exchanging cells across a strip
  border), with no over-reservation.

All planning during the search is read-only; only the winning chain of
legs is committed by the caller (:mod:`repro.core.planner`).
"""

from __future__ import annotations

import heapq
import time as _time
from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

from repro.core.intra_strip import IntraPlan, free_flow_plan, plan_within_strip
from repro.core.intra_strip_exact import plan_within_strip_exact
from repro.core.segments import Segment, make_wait
from repro.core.store_base import SegmentStore
from repro.core.strips import StripGraph
from repro.types import Grid, Query, manhattan

#: a committed boundary crossing: the robot is at from_cell at time-1
#: and at to_cell at time.
CrossingKey = Tuple[Grid, Grid, int]

@dataclass(frozen=True)
class SearchConfig:
    """Tuning knobs of the strip-level search.

    ``detour_factor`` and ``max_detour`` bound how far past the
    free-flow distance the search keeps looking: popping a key beyond
    ``release + detour_factor * distance + max_detour`` aborts the
    (hopeless) search instead of sweeping the whole strip graph, and
    the planner falls back to grid A*.  Keys are admissible completion
    lower bounds, so only routes worse than the cutoff are discarded.
    """

    max_expansions: int = 600
    max_wait: int = 64
    use_heuristic: bool = True
    detour_factor: float = 2.0  # srplint: allow-float search-budget knob, int()-clamped before use
    max_detour: int = 64
    #: use the exact time-expanded intra-strip search instead of the
    #: paper's greedy one (quality ablation; see intra_strip_exact)
    intra_exact: bool = False
    #: with intra_exact, also allow backward moves inside strips —
    #: lifting the paper's Fig. 13 restriction entirely
    intra_backward: bool = False


@dataclass
class SearchStats:
    """Counters filled during one plan_route call."""

    intra_time: float = 0.0  # srplint: allow-float perf_counter seconds, reporting only
    intra_calls: int = 0
    intra_expansions: int = 0
    strips_popped: int = 0
    edges_relaxed: int = 0
    #: intra-strip searches answered free-flow without running: past the
    #: store's ``last_end``, or certified clear by its band index
    band_skips: int = 0


@dataclass(frozen=True)
class CrossingEntry:
    """A committed step across a strip boundary.

    Attributes:
        time: arrival second in the new strip.
        from_cell: boundary cell left at ``time - 1``.
        to_cell: boundary cell occupied at ``time``.
        point: the point segment ``(time, pos)`` in the new strip's
            local coordinates, committed to that strip's store.
    """

    time: int
    from_cell: Grid
    to_cell: Grid
    point: Segment

    @property
    def key(self) -> CrossingKey:
        return (self.from_cell, self.to_cell, self.time)

    @property
    def reverse_key(self) -> CrossingKey:
        return (self.to_cell, self.from_cell, self.time)


@dataclass
class Leg:
    """Movement inside one strip of the final plan.

    Attributes:
        strip: strip index.
        entry: how the robot crossed into this strip (None for the strip
            the route starts in).
        segments: motion/wait segments within the strip, local coords.
    """

    strip: int
    entry: Optional[CrossingEntry]
    segments: List[Segment]


@dataclass
class RoutePlan:
    """A complete collision-free plan as a chain of strip legs."""

    start_time: int
    origin: Grid
    destination: Grid
    legs: List[Leg]
    arrival_time: int


@dataclass(slots=True)
class _Label:
    arrival: int
    pos: int
    pred: int
    leg_segments: List[Segment]
    entry: Optional[CrossingEntry]
    settled: bool = False


def _nearest_transit(
    ranges: Sequence[Tuple[int, int, int]], pos: int
) -> Optional[Tuple[int, int]]:
    """Greedy transit choice (Fig. 10): the adjacent pair nearest ``pos``.

    ``ranges`` are the plain ``(lo, hi, offset)`` tuples of
    :meth:`repro.core.strips.StripGraph.neighbor_transits` — this runs
    once per (settled strip, neighbor) pair, hence the flat ints.
    """
    best: Optional[Tuple[int, int]] = None
    best_dist = None
    for lo, hi, offset in ranges:
        tp = lo if pos < lo else (hi if pos > hi else pos)
        dist = pos - tp if tp < pos else tp - pos
        if best_dist is None or dist < best_dist:
            best = (tp, tp + offset)
            best_dist = dist
    return best


def _transit_toward(
    ranges: Sequence[Tuple[int, int, int]], from_pos: int, target_pos: int
) -> Optional[Tuple[int, int]]:
    """Transit pair whose landing position is nearest ``target_pos``.

    Used for edges into the *destination* strip: entering a long,
    congested strip right at the goal column avoids traversing it
    against opposing traffic (an extension over the paper's purely
    source-greedy transit; see DESIGN.md §6).
    """
    best: Optional[Tuple[int, int]] = None
    best_key = None
    for lo, hi, offset in ranges:
        want = target_pos - offset
        tp = lo if want < lo else (hi if want > hi else want)
        vp = tp + offset
        key = (abs(vp - target_pos), abs(tp - from_pos))
        if best_key is None or key < best_key:
            best = (tp, vp)
            best_key = key
    return best


class _Search:
    """One invocation of Algorithm 4 for a single query."""

    def __init__(
        self,
        graph: StripGraph,
        stores: Sequence[SegmentStore],
        crossings: AbstractSet[CrossingKey],
        config: SearchConfig,
        stats: SearchStats,
        allowed: Optional[Sequence[bool]] = None,
    ) -> None:
        self.graph = graph
        self.stores = stores
        self.crossings = crossings
        self.config = config
        self.stats = stats
        #: per-strip admissibility mask (region-sharded planning); None
        #: means every strip may be traversed
        self.allowed = allowed
        self._exact = config.intra_exact
        # The free-flow fast path rebuilds the plan without running the
        # search, which is only faithful when the search would at least
        # get to its first collision probe — and never for the exact
        # time-expanded search, whose plans the greedy free-flow shape
        # does not describe.
        self._free_flow_ok = not self._exact and config.max_expansions >= 1

    # ------------------------------------------------------------------
    # Timed wrappers around the intra-strip level
    # ------------------------------------------------------------------
    def _intra(self, strip: int, t: int, origin: int, dest: int) -> Optional[IntraPlan]:
        started = _time.perf_counter()
        store = self.stores[strip]
        stats = self.stats
        if self._free_flow_ok and len(store) != 0:
            lo, hi = (origin, dest) if origin <= dest else (dest, origin)
            if t > store.last_end or (
                store.cheap_scans and store.band_clear(lo, hi, t, t + hi - lo)
            ):
                # Free-flow fast path.  Either every segment ever stored
                # here ends before ``t`` (``last_end`` is a high-water
                # mark, so this holds after decommit and prune too), or
                # the band index certifies that nothing touches the
                # probe rectangle.  The greedy search's first collision
                # probe would come back clean and it would return
                # exactly this direct free-flow plan.
                stats.band_skips += 1
                stats.intra_calls += 1
                stats.intra_time += _time.perf_counter() - started
                return free_flow_plan(t, origin, dest)
        if self._exact:
            plan = plan_within_strip_exact(
                store,
                t,
                origin,
                dest,
                strip_length=self.graph.strips[strip].length,
                allow_backward=self.config.intra_backward,
                max_expansions=self.config.max_expansions,
                max_wait=self.config.max_wait,
            )
        else:
            plan = plan_within_strip(
                store,
                t,
                origin,
                dest,
                max_expansions=self.config.max_expansions,
                max_wait=self.config.max_wait,
            )
        stats.intra_time += _time.perf_counter() - started
        stats.intra_calls += 1
        if plan is not None:
            stats.intra_expansions += plan.expansions
        return plan

    def _plan_crossing(
        self,
        from_strip: int,
        to_strip: int,
        t: int,
        from_pos: int,
        to_pos: int,
    ) -> Optional[Tuple[Optional[Segment], CrossingEntry, int]]:
        """Find the earliest crossing from (t, from_pos) into ``to_strip``.

        The robot may wait at ``from_pos`` first.  Returns the wait
        segment (or None), the crossing entry, and the arrival time at
        ``to_pos``; None when no wait length within the cap works.
        """
        started = _time.perf_counter()
        try:
            from_store = self.stores[from_strip]
            to_store = self.stores[to_strip]
            # Inline grid_at: positions here come from transit ranges,
            # always in bounds, so skip its range check and enum compare.
            anchors = self.graph.anchors
            ai, aj, lat = anchors[from_strip]
            from_cell = (ai, aj + from_pos) if lat else (ai + from_pos, aj)
            ai, aj, lat = anchors[to_strip]
            to_cell = (ai, aj + to_pos) if lat else (ai + to_pos, aj)
            if (
                len(to_store) == 0
                and (to_cell, from_cell, t + 1) not in self.crossings
            ):
                # Fast path: nothing in the target strip and no opposing
                # crossing — step over immediately, no waiting needed.
                entry = CrossingEntry(
                    t + 1, from_cell, to_cell, Segment(t + 1, to_pos, t + 1, to_pos)
                )
                return None, entry, t + 1
            if (
                from_store.cheap_scans
                and to_store.cheap_scans
                and (to_cell, from_cell, t + 1) not in self.crossings
                and (t > from_store.last_end
                     or from_store.band_clear(from_pos, from_pos, t, t))
                and (t + 1 > to_store.last_end
                     or to_store.band_clear(to_pos, to_pos, t + 1, t + 1))
            ):
                # Band fast path: nobody stands at the departure cell at
                # ``t``, the entry cell is free at ``t + 1`` and no
                # opposing crossing is committed — the wait loop below
                # would find exactly this immediate step (its occupancy
                # scan can only block the *departure* second, which the
                # band certified clear).  Two single-band probes replace
                # two full store scans.
                entry = CrossingEntry(
                    t + 1, from_cell, to_cell, Segment(t + 1, to_pos, t + 1, to_pos)
                )
                return None, entry, t + 1
            max_wait = self.config.max_wait
            if len(from_store) == 0:
                wait_blocked = None
            else:
                # Standing at the transit cell only collides at occupied
                # seconds, so the batched occupancy scan answers the full
                # wait window in one store call.
                wait_blocked = from_store.first_occupied(from_pos, t, t + max_wait)
            if wait_blocked is not None and wait_blocked <= t:
                return None  # cannot even stand at the transit cell
            latest_leave = t + max_wait if wait_blocked is None else wait_blocked - 1
            # Batched entry scan: the first arrival second the target
            # strip leaves the entry cell free, jumping past blocking
            # segments inside the store instead of probing one second at
            # a time from Python.
            arrival = to_store.clear_entry_time(to_pos, t + 1, latest_leave + 1)
            while arrival is not None and (to_cell, from_cell, arrival) in self.crossings:
                # Exact boundary swap with a committed route: resume the
                # scan one second later.
                arrival = to_store.clear_entry_time(to_pos, arrival + 1, latest_leave + 1)
            if arrival is None:
                return None
            wait = make_wait(t, from_pos, arrival - 1 - t) if arrival - 1 > t else None
            point = Segment(arrival, to_pos, arrival, to_pos)
            return wait, CrossingEntry(arrival, from_cell, to_cell, point), arrival
        finally:
            self.stats.intra_time += _time.perf_counter() - started

    # ------------------------------------------------------------------
    # The search proper
    # ------------------------------------------------------------------
    def run(self, query: Query) -> Optional[RoutePlan]:
        graph = self.graph
        ori, dst, t0 = query.origin, query.destination, query.release_time
        if ori == dst:
            return RoutePlan(t0, ori, dst, [], t0)

        labels: Dict[int, _Label] = {}
        # Entries: (key, -arrival, seq, kind, *payload); kind 0 settles a
        # strip label, kind 1 lazily evaluates one edge (u, v, tp, vp).
        # Edge keys are admissible lower bounds (free-flow transit +
        # hop), so expensive intra-strip planning only runs for edges
        # that are actually competitive — lazy edge evaluation.  Stubs
        # are flattened into the heap tuple itself (arity 9 vs the
        # settle entries' 5): ``seq`` is unique, so tuple comparison
        # never reads past index 2 and the mixed arities are safe.
        heap: List[Tuple[int, ...]] = []
        seq = 0

        di, dj = dst
        use_h = self.config.use_heuristic
        # h(v, vp) = hK[v] + |vp + hM[v]| — see StripGraph.heuristic_tables.
        if use_h:
            hK, hM = graph.heuristic_tables(di, dj)
        else:
            hK = hM = []

        def heuristic(strip: int, pos: int) -> int:
            if not use_h:
                return 0
            return hK[strip] + abs(pos + hM[strip])

        def push(strip: int, label: _Label) -> None:
            nonlocal seq
            existing = labels.get(strip)
            if existing is not None and (
                existing.settled or existing.arrival <= label.arrival
            ):
                return
            labels[strip] = label
            seq += 1
            # Tie-break equal keys toward larger arrival: depth-first
            # across f-plateaus, like the grid A*'s -t tie-break; without
            # it the search sweeps the whole equal-cost band of strips.
            heapq.heappush(
                heap,
                (
                    label.arrival + heuristic(strip, label.pos),
                    -label.arrival,
                    seq,
                    0,
                    strip,
                ),
            )

        # -- origin ------------------------------------------------------
        ori_strip_idx, ori_pos = graph.locate(ori)
        ori_strip = graph.strips[ori_strip_idx]
        if ori_strip.is_aisle:
            push(ori_strip_idx, _Label(t0, ori_pos, -1, [], None))
        else:
            # Rack origin: slide into each adjacent aisle cell.
            labels[ori_strip_idx] = _Label(t0, ori_pos, -1, [], None)
            for cell in graph.warehouse.neighbors(ori):
                v, vp = graph.locate(cell)
                if self.allowed is not None and not self.allowed[v]:
                    continue
                crossing = self._plan_crossing(ori_strip_idx, v, t0, ori_pos, vp)
                if crossing is None:
                    continue
                _wait, entry, arrival = crossing
                push(v, _Label(arrival, vp, ori_strip_idx, [], entry))

        # -- destination bookkeeping --------------------------------------
        dst_strip_idx, dst_pos = graph.locate(dst)
        dst_is_rack = not graph.strips[dst_strip_idx].is_aisle
        # aisle strip index -> [transit positions adjacent to the rack dst]
        rack_targets: Dict[int, List[int]] = {}
        if dst_is_rack:
            for cell in graph.warehouse.neighbors(dst):
                v, vp = graph.locate(cell)
                if self.allowed is not None and not self.allowed[v]:
                    continue
                rack_targets.setdefault(v, []).append(vp)
            if not rack_targets:
                return None  # walled-in rack

        target_strips = frozenset(rack_targets) if dst_is_rack else frozenset((dst_strip_idx,))
        best: Optional[RoutePlan] = None

        _Tail = Tuple[List[Segment], Optional[Leg], int]

        def completion_tail(v: int, arrival: int, pos: int) -> Optional[_Tail]:
            """Final movement within target strip ``v`` from (arrival, pos).

            Returns ``(segments_in_v, rack_leg_or_None, completion_time)``
            or None when the destination cannot be reached from this
            entry.  For rack destinations all adjacent transit cells of
            ``v`` are tried and the earliest completion wins.
            """
            if not dst_is_rack:
                plan = self._intra(v, arrival, pos, dst_pos)
                if plan is None:
                    return None
                return list(plan.segments), None, plan.arrival_time
            tail: Optional[_Tail] = None
            for transit_pos in rack_targets.get(v, ()):
                plan = self._intra(v, arrival, pos, transit_pos)
                if plan is None:
                    continue
                crossing = self._plan_crossing(
                    v, dst_strip_idx, plan.arrival_time, transit_pos, dst_pos
                )
                if crossing is None:
                    continue
                wait, entry, completion = crossing
                if tail is not None and completion >= tail[2]:
                    continue
                segments = list(plan.segments)
                if wait is not None:
                    segments.append(wait)
                tail = segments, Leg(dst_strip_idx, entry, []), completion
            return tail

        def record_completion(base_legs: List[Leg], tail: _Tail) -> None:
            nonlocal best
            segments, rack_leg, completion = tail
            if best is not None and completion >= best.arrival_time:
                return
            legs = list(base_legs)
            last = legs.pop()
            legs.append(Leg(last.strip, last.entry, segments))
            if rack_leg is not None:
                legs.append(rack_leg)
            best = RoutePlan(t0, ori, dst, legs, completion)

        # Local binds for settle's inner loop — it touches every
        # (settled strip, neighbor) pair, far more often than anything
        # else at the strip level.
        aisle_adjacency = graph._aisle_adjacency
        heappush = heapq.heappush
        stats = self.stats
        labels_get = labels.get
        allowed = self.allowed

        def settle(u: int) -> None:
            """Pop handler for a strip label: complete and queue edge stubs."""
            nonlocal seq
            label = labels[u]
            if label.settled:
                return
            label.settled = True
            stats.strips_popped += 1
            arrival = label.arrival
            pos = label.pos

            if u in target_strips:
                # Complete from this strip's own (single) label; additional
                # entries into target strips are tried per incoming edge.
                tail = completion_tail(u, arrival, pos)
                if tail is not None:
                    base = self._chain_legs(labels, u)
                    base.append(Leg(u, label.entry, []))
                    record_completion(base, tail)

            for v, lo, hi, offset, multi in aisle_adjacency[u]:
                if allowed is not None and not allowed[v]:
                    continue
                existing = labels_get(v)
                if v not in target_strips:
                    # Common case: one greedy transit (Fig. 10), fully
                    # inlined — no nested tuple, no helper call for the
                    # overwhelmingly common single-range edge (see
                    # StripGraph's pre-unpacked aisle adjacency).
                    if existing is not None and existing.settled:
                        continue
                    if multi is None:
                        tp = lo if pos < lo else (hi if pos > hi else pos)
                        vp = tp + offset
                    else:
                        tp, vp = _nearest_transit(multi, pos)
                    # Admissible lower bound: free-flow run to the transit
                    # cell plus the boundary hop.
                    bound = arrival + (pos - tp if tp < pos else tp - pos) + 1
                    if existing is not None and existing.arrival <= bound:
                        continue  # dominated before evaluation
                    if use_h:
                        key = bound + hK[v] + abs(vp + hM[v])
                    else:
                        key = bound
                    # Stubs the pop loop could only ever discard (beyond
                    # the detour budget or the incumbent route) are
                    # dropped here instead of bloating the heap.
                    if key > key_limit:
                        continue
                    if best is not None and key >= best.arrival_time:
                        continue
                    seq += 1
                    heappush(heap, (key, -bound, seq, 1, u, v, tp, vp, bound))
                    continue
                # Target strip: additionally try entering right at the
                # goal column — traversing a long congested strip against
                # opposing traffic is the main failure mode of the
                # source-greedy transit.
                ranges = ((lo, hi, offset),) if multi is None else multi
                transits = [_nearest_transit(ranges, pos)]
                goal_pos = (
                    min(rack_targets[v], key=lambda p: abs(p - pos))
                    if dst_is_rack
                    else dst_pos
                )
                aligned = _transit_toward(ranges, pos, goal_pos)
                if aligned is not None and aligned not in transits:
                    transits.append(aligned)
                for tp, vp in transits:
                    bound = arrival + (pos - tp if tp < pos else tp - pos) + 1
                    seq += 1
                    h = hK[v] + abs(vp + hM[v]) if use_h else 0
                    heappush(heap, (bound + h, -bound, seq, 1, u, v, tp, vp, bound))

        def evaluate_edge(u: int, v: int, tp: int, vp: int, bound: int) -> None:
            """Pop handler for an edge stub: run the real intra/crossing."""
            label = labels[u]
            target_v = v in target_strips
            existing = labels.get(v)
            if existing is not None and not target_v:
                # Dominated or already settled: skip the expensive eval.
                if existing.settled or existing.arrival <= bound:
                    return
            stats.edges_relaxed += 1
            plan = self._intra(u, label.arrival, label.pos, tp)
            if plan is None:
                return
            crossing = self._plan_crossing(u, v, plan.arrival_time, tp, vp)
            if crossing is None:
                return
            wait, entry, arrival_v = crossing
            if best is not None and arrival_v >= best.arrival_time:
                return
            leg_segments = list(plan.segments)
            if wait is not None:
                leg_segments.append(wait)
            if target_v:
                # The strip-revisit restriction gives each strip one
                # label, so a blocked final leg from the labelled entry
                # would doom the query; trying completion from *every*
                # entry edge sidesteps that without multi-labelling.
                tail = completion_tail(v, arrival_v, vp)
                if tail is not None:
                    base = self._chain_legs(labels, u)
                    base.append(Leg(u, label.entry, leg_segments))
                    base.append(Leg(v, entry, []))
                    record_completion(base, tail)
            if existing is not None and existing.arrival <= arrival_v:
                return
            push(v, _Label(arrival_v, vp, u, leg_segments, entry))

        # -- main loop ------------------------------------------------------
        key_limit = int(
            t0 + self.config.detour_factor * manhattan(ori, dst) + self.config.max_detour
        )
        heappop = heapq.heappop
        while heap:
            entry = heappop(heap)
            key = entry[0]
            if best is not None and key >= best.arrival_time:
                break
            if key > key_limit:
                break  # nothing within the detour budget remains
            if entry[3] == 0:
                settle(entry[4])
            else:
                evaluate_edge(entry[4], entry[5], entry[6], entry[7], entry[8])

        return best

    def _chain_legs(self, labels: Dict[int, _Label], last_strip: int) -> List[Leg]:
        """Rebuild the legs preceding ``last_strip`` by walking pred links."""
        chain: List[int] = []
        cur = last_strip
        while cur != -1:
            chain.append(cur)
            cur = labels[cur].pred
        chain.reverse()
        legs: List[Leg] = []
        for here, nxt in zip(chain, chain[1:]):
            legs.append(Leg(here, labels[here].entry, labels[nxt].leg_segments))
        return legs


def plan_route(
    graph: StripGraph,
    stores: Sequence[SegmentStore],
    crossings: AbstractSet[CrossingKey],
    query: Query,
    config: SearchConfig,
    stats: Optional[SearchStats] = None,
    allowed: Optional[Sequence[bool]] = None,
) -> Optional[RoutePlan]:
    """Run Algorithm 4 for one query; read-only against the stores.

    ``allowed`` optionally restricts the search to a subset of strips
    (per-strip boolean mask): disallowed strips are never entered or
    used as rack transit aisles.  Region-sharded planning uses this to
    confine every worker to its own partition band.

    Returns the winning :class:`RoutePlan` or None when the restricted
    search fails (the caller then falls back to grid-level A*).
    """
    return _Search(
        graph, stores, crossings, config, stats or SearchStats(), allowed
    ).run(query)
