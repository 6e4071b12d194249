"""Slope-based segment indexing (Section V-D, Algorithm 3).

Segments are partitioned by slope.  Within one slope class all
segments are parallel, so two of them can only collide when they ride
the *same* trajectory line; the paper detects this by rotating
non-horizontal segments by ±pi/4 (Eq. 4) and bucketing on the rotated
first coordinate.  We bucket on the integer line intercept
``p0 - slope * t0`` instead, which is the rotated coordinate scaled by
sqrt(2) — identical buckets, exact arithmetic.

For a query of slope ``k`` the store therefore:

* looks up only the same-intercept bucket among ``k``-slope segments
  (binary search by start time inside the bucket), and
* falls back to the Section V-B linear judgement for the two *other*
  slope classes, filtered by time-span overlap.

The rotation's side benefit noted in the paper — rotated keys are
almost unique so buckets stay tiny — holds here too: each trajectory
line is typically used by very few concurrent robots.

Every segment list carries a parallel plain-int list of start times, so
the binary searches run entirely in C (``bisect`` on an int list)
instead of evaluating a Python ``key`` lambda O(log n) times per probe.
These probes are the single hottest operation of the whole planner.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional

from repro.core.segments import Segment
from repro.core.store_base import ConflictHit, SegmentStore
from repro.geometry.collision import conflict_between_segments

_SLOPES = (0, 1, -1)


class SlopeIndexedStore(SegmentStore):
    """Algorithm 3: per-slope start-time lists plus intercept maps."""

    __slots__ = (
        "queries",
        "judged",
        "last_end",
        "_by_start",
        "_start_keys",
        "_by_intercept",
        "_intercept_keys",
        "_size",
        "_max_durations",
    )

    def __init__(self) -> None:
        super().__init__()
        # The paper's S_k: all k-slope segments ordered by start time,
        # with the parallel int key array used for binary search.
        self._by_start: Dict[int, List[Segment]] = {k: [] for k in _SLOPES}
        self._start_keys: Dict[int, List[int]] = {k: [] for k in _SLOPES}
        # The paper's M_k: intercept -> segments ordered by start time
        # (again with a parallel start-time key array per bucket).
        self._by_intercept: Dict[int, Dict[int, List[Segment]]] = {
            k: {} for k in _SLOPES
        }
        self._intercept_keys: Dict[int, Dict[int, List[int]]] = {
            k: {} for k in _SLOPES
        }
        self._size = 0
        # Longest duration per slope class: the candidate windows below
        # only need to reach back far enough for segments of the list
        # being scanned, and long waits (slope 0) would otherwise
        # stretch every cross-slope window too.
        self._max_durations: Dict[int, int] = {k: 0 for k in _SLOPES}

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Algorithm 3, "Insertion"
    # ------------------------------------------------------------------
    def insert(self, segment: Segment, owner: int = -1) -> None:
        k = segment.slope
        t0 = segment.t0
        keys = self._start_keys[k]
        idx = bisect.bisect_right(keys, t0)
        keys.insert(idx, t0)
        self._by_start[k].insert(idx, segment)
        bucket_keys = self._intercept_keys[k].get(segment.intercept)
        if bucket_keys is None:
            bucket_keys = self._intercept_keys[k][segment.intercept] = []
            bucket = self._by_intercept[k][segment.intercept] = []
        else:
            bucket = self._by_intercept[k][segment.intercept]
        idx = bisect.bisect_right(bucket_keys, t0)
        bucket_keys.insert(idx, t0)
        bucket.insert(idx, segment)
        self._size += 1
        if segment.duration > self._max_durations[k]:
            self._max_durations[k] = segment.duration
        self._raise_last_end(segment)

    def remove(self, segment: Segment) -> None:
        """Decommit one segment: undo both index entries of :meth:`insert`.

        Both indexes insert at the *end* of their start-time tie window
        (``bisect_right``), so removal drops the *last* value-equal
        instance — the exact inverse, keeping insert-then-remove round
        trips bit-identical even with duplicates among ties.
        """
        k = segment.slope
        t0 = segment.t0
        keys = self._start_keys[k]
        segs = self._by_start[k]
        lo = bisect.bisect_left(keys, t0)
        hi = bisect.bisect_right(keys, t0, lo)
        for idx in reversed(range(lo, hi)):
            if segs[idx] == segment:
                del segs[idx]
                del keys[idx]
                break
        else:
            raise KeyError(f"segment {segment!r} not stored")
        bucket = self._by_intercept[k][segment.intercept]
        bucket_keys = self._intercept_keys[k][segment.intercept]
        blo = bisect.bisect_left(bucket_keys, t0)
        bhi = bisect.bisect_right(bucket_keys, t0, blo)
        for idx in reversed(range(blo, bhi)):
            if bucket[idx] == segment:
                del bucket[idx]
                del bucket_keys[idx]
                break
        if not bucket:
            del self._by_intercept[k][segment.intercept]
            del self._intercept_keys[k][segment.intercept]
        self._size -= 1
        if segment.duration == self._max_durations[k]:
            self._max_durations[k] = max(
                (s.duration for s in segs), default=0
            )

    # ------------------------------------------------------------------
    # Algorithm 3, "Collision Judgement"
    # ------------------------------------------------------------------
    def earliest_conflict(self, segment: Segment) -> Optional[ConflictHit]:
        self.queries += 1
        best = self._same_slope_conflict(segment)
        if best is not None and best[0] <= segment.t0:
            return best
        for k in _SLOPES:
            if k == segment.slope:
                continue
            candidate = self._cross_slope_conflict(segment, k)
            if candidate is not None and (best is None or candidate[0] < best[0]):
                best = candidate
                if best[0] <= segment.t0:
                    break
        return best

    def _same_slope_conflict(self, segment: Segment) -> Optional[ConflictHit]:
        """Same-slope conflicts: only the same-intercept bucket matters."""
        bucket = self._by_intercept[segment.slope].get(segment.intercept)
        if not bucket:
            return None
        keys = self._intercept_keys[segment.slope][segment.intercept]
        lo = bisect.bisect_left(keys, segment.t0 - self._max_durations[segment.slope])
        end = bisect.bisect_right(keys, segment.t1)
        for idx in range(lo, end):
            other = bucket[idx]
            if other.t1 < segment.t0:
                continue
            self.judged += 1
            # Same trajectory line with overlapping spans: the first
            # shared second; ascending start order makes the first hit
            # the earliest one.
            return (max(segment.t0, other.t0), other)
        return None

    def _cross_slope_conflict(self, segment: Segment, k: int) -> Optional[ConflictHit]:
        """Judge the time-overlapping segments of a different slope class."""
        candidates = self._by_start[k]
        keys = self._start_keys[k]
        lo = bisect.bisect_left(keys, segment.t0 - self._max_durations[k])
        end = bisect.bisect_right(keys, segment.t1)
        found: Optional[ConflictHit] = None
        for idx in range(lo, end):
            other = candidates[idx]
            if other.t1 < segment.t0:
                continue
            self.judged += 1
            conflict = conflict_between_segments(segment, other)
            if conflict is None:
                continue
            if found is None or conflict.blocked_time < found[0]:
                found = (conflict.blocked_time, other)
                if found[0] <= segment.t0:
                    break
        return found

    # ------------------------------------------------------------------
    # Point queries (A* fallback fast path)
    # ------------------------------------------------------------------
    def occupied(self, pos: int, t: int) -> bool:
        for k in _SLOPES:
            bucket = self._by_intercept[k].get(pos - k * t)
            if not bucket:
                continue
            keys = self._intercept_keys[k][pos - k * t]
            lo = bisect.bisect_left(keys, t - self._max_durations[k])
            end = bisect.bisect_right(keys, t)
            for idx in range(lo, end):
                if bucket[idx].t1 >= t:
                    return True
        return False

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def iter_segments(self) -> Iterator[Segment]:
        for k in _SLOPES:
            yield from self._by_start[k]

    def prune(self, before: int) -> int:
        if all(s.t1 >= before for k in _SLOPES for s in self._by_start[k]):
            return 0  # no-op: leave the index untouched
        dropped = 0
        max_durations = {k: 0 for k in _SLOPES}
        for k in _SLOPES:
            kept = [s for s in self._by_start[k] if s.t1 >= before]
            dropped += len(self._by_start[k]) - len(kept)
            self._by_start[k] = kept
            self._start_keys[k] = [s.t0 for s in kept]
            for s in kept:
                if s.duration > max_durations[k]:
                    max_durations[k] = s.duration
            buckets = self._by_intercept[k]
            bucket_keys = self._intercept_keys[k]
            for key in list(buckets):
                alive = [s for s in buckets[key] if s.t1 >= before]
                if alive:
                    if len(alive) != len(buckets[key]):
                        buckets[key] = alive
                        bucket_keys[key] = [s.t0 for s in alive]
                else:
                    del buckets[key]
                    del bucket_keys[key]
        self._size -= dropped
        # Recompute from the survivors so the candidate windows stay
        # tight after long multiday runs instead of remembering the
        # longest segment ever stored.
        self._max_durations = max_durations
        return dropped

    def clear(self) -> None:
        for k in _SLOPES:
            self._by_start[k].clear()
            self._start_keys[k].clear()
            self._by_intercept[k].clear()
            self._intercept_keys[k].clear()
        self._size = 0
        self._max_durations = {k: 0 for k in _SLOPES}
        self.last_end = -1
