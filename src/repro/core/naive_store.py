"""Ordered-set collision detection (Section V-B).

Segments are kept in a list ordered by start time (the paper suggests a
red-black tree; a Python list with :mod:`bisect` gives the same
O(log n) lookup and is faster in practice for the sizes involved).

``earliest_conflict`` binary-searches for the prefix of segments whose
start time does not exceed the query's finish time, filters the prefix
by time-span overlap, and judges the survivors one by one with the
geometry of Eq. (2)/(3) — the O(2 log n + n) procedure of the paper's
Section V-B remarks.

A parallel plain-int list of start times backs every binary search, so
``bisect`` runs entirely in C instead of calling a Python ``key``
lambda O(log n) times per probe — this store sits on the hot loop of
every intra-strip search.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Optional

from repro.core.segments import Segment
from repro.core.store_base import ConflictHit, SegmentStore
from repro.geometry.collision import conflict_between_segments


class NaiveSegmentStore(SegmentStore):
    """Section V-B's baseline store: one time-ordered list per strip."""

    __slots__ = (
        "queries",
        "judged",
        "last_end",
        "_segments",
        "_starts",
        "_max_duration",
    )

    def __init__(self) -> None:
        super().__init__()
        self._segments: List[Segment] = []
        #: start times parallel to _segments (plain ints for C-speed bisect)
        self._starts: List[int] = []
        self._max_duration = 0

    def insert(self, segment: Segment, owner: int = -1) -> None:
        idx = bisect.bisect_right(self._starts, segment.t0)
        self._starts.insert(idx, segment.t0)
        self._segments.insert(idx, segment)
        if segment.duration > self._max_duration:
            self._max_duration = segment.duration
        self._raise_last_end(segment)

    def remove(self, segment: Segment) -> None:
        # All stored instances of a start time sit in one contiguous
        # bisect window.  Insert appends at the *end* of the window, so
        # removing the *last* value-equal instance is its exact inverse:
        # an insert-then-remove round trip restores the list bit-for-bit
        # even with value-equal duplicates interleaved with other ties.
        lo = bisect.bisect_left(self._starts, segment.t0)
        hi = bisect.bisect_right(self._starts, segment.t0, lo)
        for idx in reversed(range(lo, hi)):
            if self._segments[idx] == segment:
                del self._segments[idx]
                del self._starts[idx]
                if segment.duration == self._max_duration:
                    self._max_duration = max(
                        (s.duration for s in self._segments), default=0
                    )
                return
        raise KeyError(f"segment {segment!r} not stored")

    def earliest_conflict(self, segment: Segment) -> Optional[ConflictHit]:
        self.queries += 1
        # Every potential collider overlaps our span, so it starts no
        # later than our finish and no earlier than our start minus the
        # longest stored duration: a O(log n) window on the sorted list.
        lo = bisect.bisect_left(self._starts, segment.t0 - self._max_duration)
        end = bisect.bisect_right(self._starts, segment.t1)
        best: Optional[ConflictHit] = None
        for idx in range(lo, end):
            other = self._segments[idx]
            if other.t1 < segment.t0:
                continue  # span ended before ours begins
            self.judged += 1
            conflict = conflict_between_segments(segment, other)
            if conflict is not None and (best is None or conflict.blocked_time < best[0]):
                best = (conflict.blocked_time, other)
                if best[0] <= segment.t0:
                    break  # cannot get earlier than our own start
        return best

    def iter_segments(self) -> Iterator[Segment]:
        return iter(self._segments)

    def prune(self, before: int) -> int:
        kept = [s for s in self._segments if s.t1 >= before]
        dropped = len(self._segments) - len(kept)
        if dropped:
            self._segments = kept
            self._starts = [s.t0 for s in kept]
            # Recompute from the survivors so the candidate window does
            # not stay inflated by long-gone long segments.
            self._max_duration = max((s.duration for s in kept), default=0)
        return dropped

    def clear(self) -> None:
        self._segments.clear()
        self._starts.clear()
        self._max_duration = 0
        self.last_end = -1

    def __len__(self) -> int:
        return len(self._segments)
