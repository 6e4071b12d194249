"""Route search within one strip (Section V-C, Algorithm 2).

The planner greedily runs toward the destination; when the move would
collide it stops right before the collision, waits, and retries.
Backward moves are prohibited (the paper's efficiency restriction), so
a plan is a chain of move/wait segments with monotone positions.

The implementation follows the paper's greedy recursion but replaces
its ``tau = c+1, ...`` second-by-second wait probing with closed-form
*obstacle jumps*: the store reports which committed segment blocks a
candidate move, and :func:`next_clear_departure` computes in O(1) the
first departure time that clears that obstacle.  Each loop iteration
therefore costs O(1) store queries, and a whole intra-strip plan costs
O(number of obstacles met along the way).

Three safeguards the paper leaves implicit:

* the *wait segment itself* is collision-checked (another robot may
  drive through the waiting cell); when a stop cell cannot host the
  required wait the search backs off to an earlier stop cell;
* all stop cells between the collision point and the current position
  are considered (latest first, the paper's greedy preference);
* a global iteration budget bounds worst-case work; on exhaustion the
  caller treats the strip as impassable and the end-to-end planner
  falls back to grid-level A* (Section VI remarks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.segments import Segment, make_move, make_wait
from repro.core.store_base import ConflictHit, SegmentStore
from repro.geometry.collision import conflict_between_segments


@dataclass(slots=True)
class IntraPlan:
    """Result of an intra-strip search.

    Attributes:
        segments: contiguous move/wait segments from the start state to
            the destination (empty when origin == destination).
        start_time: time of the initial state.
        arrival_time: time at which the destination position is reached.
        expansions: collision queries spent finding the plan.
    """

    segments: List[Segment]
    start_time: int
    arrival_time: int
    expansions: int = 0

    @property
    def duration(self) -> int:
        return self.arrival_time - self.start_time


def next_clear_departure(obstacle: Segment, p: int, destination: int, t_from: int) -> int:
    """Smallest departure >= ``t_from`` whose direct move clears ``obstacle``.

    Closed-form geometry against a single known segment — no store
    access — so the wait loop jumps past an obstacle in O(1) instead of
    one store query per waited second.

    The conflict region of the departure time is a contiguous interval
    in every slope combination (the analysis below); a short verify loop
    absorbs the ±1 swap-parity boundary cases.
    """
    m = 1 if destination > p else -1
    length = abs(destination - p)
    s = obstacle.slope
    c = obstacle.intercept
    if s == m:
        # Parallel trajectories conflict only on the exact same line
        # (a single departure time) and only when the spans overlap.
        bad = m * (p - c)
        overlaps = obstacle.t0 - length <= bad <= obstacle.t1
        candidate = t_from + 1 if (t_from == bad and overlaps) else t_from
    elif s == 0:
        # The obstacle occupies one cell over [t0, t1]; we hit that cell
        # d steps after departing.
        d = (obstacle.p0 - p) * m
        if d < 0 or d > length:
            return t_from  # the cell is off our path
        if t_from < obstacle.t0 - d:
            candidate = t_from  # we pass before the obstacle arrives
        else:
            candidate = max(t_from, obstacle.t1 - d + 1)
    else:
        # Opposite unit slopes: the crossing time is (t' + m(c-p)) / 2,
        # giving a contiguous conflict interval [lo, hi] in t'.
        bias = m * (c - p)
        lo = max(bias - 2 * length, 2 * obstacle.t0 - bias)
        hi = min(bias, 2 * obstacle.t1 - bias)
        if t_from < lo or t_from > hi:
            candidate = t_from
        else:
            candidate = hi + 1
    # Verify against the exact integer-time semantics (swap parity can
    # shift the boundary by one second).
    for t_dep in range(candidate, candidate + 4):
        if conflict_between_segments(make_move(t_dep, p, destination), obstacle) is None:
            return t_dep
    return candidate + 4  # pragma: no cover - analytic bound is tight


def plan_within_strip(
    store: SegmentStore,
    start_time: int,
    origin: int,
    destination: int,
    max_expansions: int = 200,
    max_wait: int = 64,
) -> Optional[IntraPlan]:
    """Find a collision-free monotone route from ``origin`` to ``destination``.

    Positions are strip-local integers.  Returns ``None`` when no route
    exists within the iteration budget or every wait option is blocked
    (the end-to-end planner then falls back to grid A*).
    """
    if len(store) == 0:
        # Fast path: an empty strip cannot conflict with anything.
        if origin == destination:
            return IntraPlan([], start_time, start_time, 0)
        move = make_move(start_time, origin, destination)
        return IntraPlan([move], start_time, move.t1, 0)

    expansions = 0

    def conflict_of(segment: Segment) -> Optional[ConflictHit]:
        nonlocal expansions
        expansions += 1
        return store.earliest_conflict(segment)

    if origin == destination:
        # Standing at the start state must itself be conflict-free.
        expansions += 1
        if store.first_occupied(origin, start_time, start_time) is not None:
            return None
        return IntraPlan([], start_time, start_time, expansions)

    direction = 1 if destination > origin else -1
    segments: List[Segment] = []
    t, p = start_time, origin

    while p != destination:
        if expansions >= max_expansions:
            return None
        move = make_move(t, p, destination)
        hit = conflict_of(move)
        if hit is None:
            segments.append(move)
            t, p = move.t1, destination
            break
        blocked, obstacle = hit
        if blocked <= t:
            return None  # even the current cell is claimed at time t
        # Stop right before the collision; back off to earlier stop
        # cells when the wait there is impossible.
        advanced = False
        for stop_t in range(blocked - 1, t - 1, -1):
            stop_p = p + direction * (stop_t - t)
            # How soon does the direct move from the stop cell clear the
            # obstacle that just blocked us?
            departure = next_clear_departure(obstacle, stop_p, destination, stop_t + 1)
            # Can we actually sit at the stop cell until then?  A
            # stationary probe only collides at the exact seconds the
            # cell is occupied, so the batched occupancy scan answers
            # the whole wait span in one store call.
            expansions += 1
            first_block = store.first_occupied(stop_p, stop_t, stop_t + max_wait)
            if first_block is not None and first_block <= stop_t:
                continue  # cannot even stand at this cell
            latest = stop_t + max_wait if first_block is None else first_block - 1
            if departure > latest:
                continue  # obstacle outlives our welcome at this cell
            if stop_t > t:
                segments.append(Segment(t, p, stop_t, stop_p))
            segments.append(make_wait(stop_t, stop_p, departure - stop_t))
            t, p = departure, stop_p
            advanced = True
            break
        if not advanced:
            return None

    clean = [s for s in segments if not s.is_point]
    arrival = clean[-1].t1 if clean else start_time
    return IntraPlan(clean, start_time, arrival, expansions)


def free_flow_plan(start_time: int, origin: int, destination: int) -> IntraPlan:
    """What :func:`plan_within_strip` returns when its first probe is clean.

    With at least one committed segment in the strip, a search whose
    band is free of traffic spends exactly one collision probe
    (``expansions == 1``) and returns the single direct move (or, for a
    standing query, an empty segment list).  Callers that can prove the
    band free without probing — past the store's ``last_end``, or from
    the columnar band index — build the identical result here.
    """
    if origin == destination:
        return IntraPlan([], start_time, start_time, 1)
    move = make_move(start_time, origin, destination)
    return IntraPlan([move], start_time, move.t1, 1)
