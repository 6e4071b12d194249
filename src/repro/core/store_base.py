"""Common interface of per-strip segment stores.

A *segment store* holds the committed segments of one strip and answers
the question Algorithm 2 needs: given a candidate segment, what is the
earliest time at which it becomes blocked by an existing segment — and
by *which* segment.  Knowing the blocking segment lets the intra-strip
search jump its waiting time directly past the obstacle instead of
probing second by second.

Three implementations exist:

* :class:`repro.core.naive_store.NaiveSegmentStore` — Section V-B's
  ordered set with linear judgement;
* :class:`repro.core.slope_index.SlopeIndexedStore` — Section V-D's
  slope-based index (Algorithm 3);
* :class:`repro.core.columnar_store.ColumnarSegmentStore` — the slope
  index over flat integer columns, with a per-band interval index.

All also answer point-occupancy queries, which the grid-level A*
fallback uses to stay consistent with previously committed routes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.core.segments import Segment

#: (blocked_time, blocking_segment)
ConflictHit = Tuple[int, Segment]


def _band_time_interval(
    segment: Segment, lo: int, hi: int
) -> Optional[Tuple[int, int]]:
    """Closed time interval during which ``segment`` sits inside ``[lo, hi]``.

    ``None`` when the segment's trajectory never enters the position
    band.  Conflicts between segments (vertex or swap) always happen at
    a shared position inside both segments' position ranges, so any
    segment able to conflict with a probe confined to the band must be
    inside the band — at a (possibly half-integer) time covered by the
    closed integer interval returned here.
    """
    p0, p1 = segment.p0, segment.p1
    pmin, pmax = (p0, p1) if p0 <= p1 else (p1, p0)
    if pmax < lo or pmin > hi:
        return None
    k = segment.slope
    if k == 0:
        return segment.t0, segment.t1
    if k == 1:
        enter = segment.t0 + (lo - p0 if lo > p0 else 0)
        exit_ = segment.t0 + (hi - p0)
    else:
        enter = segment.t0 + (p0 - hi if hi < p0 else 0)
        exit_ = segment.t0 + (p0 - lo)
    return enter, min(exit_, segment.t1)


def _entry_clear_time(obstacle: Segment, pos: int, t_from: int) -> int:
    """First time >= ``t_from`` at which ``obstacle`` has cleared ``pos``.

    For a wait segment parked on the cell that is one past its end; for
    a moving segment, one past the single second it passes the cell.
    Used to jump occupancy scans over an obstacle instead of probing
    second by second.
    """
    if obstacle.slope == 0:
        return max(t_from, obstacle.t1 + 1)
    t_pass = (pos - obstacle.intercept) * obstacle.slope
    return max(t_from, t_pass + 1)


class SegmentStore(ABC):
    """Committed segments of one strip plus collision queries."""

    __slots__ = ()

    #: True when :meth:`band_clear` answers from an index, so the
    #: inter-strip search's free-flow fast paths are worth asking it.
    #: Array-backed layouts with a band interval index set this;
    #: object-backed layouts, whose ``band_clear`` always declines, do not.
    cheap_scans: bool = False

    def __init__(self) -> None:
        #: number of earliest_conflict queries served (instrumentation)
        self.queries = 0
        #: number of pairwise judgements performed (instrumentation)
        self.judged = 0
        #: high-water mark over the end times of every segment *ever*
        #: inserted: an upper bound on the latest end among the stored
        #: segments, maintained in O(1).  ``t > last_end`` certifies the
        #: whole strip is traffic-free from ``t`` on without touching a
        #: single segment.  ``remove``/``prune`` leave it (possibly
        #: stale-high, which only costs fast-path answers, never
        #: soundness); ``clear`` resets it.
        self.last_end = -1

    def _raise_last_end(self, segment: Segment) -> None:
        """Fold a newly inserted segment's end time into :attr:`last_end`."""
        if segment.t1 > self.last_end:
            self.last_end = segment.t1

    @abstractmethod
    def insert(self, segment: Segment, owner: int = -1) -> None:
        """Commit a segment.

        Zero-duration *point* segments are legal: they represent the
        paper's footnote-1 case of a route touching a strip for a single
        second (e.g. departing its origin cell immediately).

        ``owner`` is the query id of the route the segment belongs to
        (-1 when unattributed, e.g. blockages).  It is advisory
        bookkeeping for audit queries such as
        ``ColumnarSegmentStore.owners_overlapping`` — collision answers
        and the remove-by-value contract never depend on it, and
        layouts without owner tracking may ignore it.
        """

    @abstractmethod
    def remove(self, segment: Segment) -> None:
        """Decommit one stored segment (by value).

        Stores are multisets: committing a route may legally store two
        value-equal segments (e.g. a recovery hold ending exactly at the
        new departure second alongside the new route's origin-presence
        point), so ``remove`` drops exactly *one* instance.  Removing a
        segment that is not stored raises :class:`KeyError` — decommit
        bugs must fail loudly, silently ignoring them would desynchronise
        the stores from the surviving routes.
        """

    @abstractmethod
    def earliest_conflict(self, segment: Segment) -> Optional[ConflictHit]:
        """Earliest blocked time of ``segment`` and the segment causing it.

        ``None`` means the whole candidate segment is collision-free.
        """

    @abstractmethod
    def iter_segments(self) -> Iterator[Segment]:
        """Iterate over all stored segments (order unspecified)."""

    @abstractmethod
    def prune(self, before: int) -> int:
        """Drop segments finishing strictly before ``before``; return count."""

    @abstractmethod
    def clear(self) -> None:
        """Remove every stored segment."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of stored segments."""

    def earliest_block(self, segment: Segment) -> Optional[int]:
        """First integer time at which ``segment`` conflicts, or None."""
        hit = self.earliest_conflict(segment)
        return None if hit is None else hit[0]

    def occupied(self, pos: int, t: int) -> bool:
        """True when some stored segment occupies ``pos`` at time ``t``."""
        return self.earliest_conflict(Segment(t, pos, t, pos)) is not None

    def move_blocked(self, t: int, p_from: int, p_to: int) -> bool:
        """True when the unit move ``p_from -> p_to`` over ``[t, t+1]`` conflicts.

        Catches the target-cell vertex conflict and the swap conflict in
        one query; used by the A* fallback.
        """
        return self.earliest_conflict(Segment(t, p_from, t + 1, p_to)) is not None

    def first_occupied(self, pos: int, t_lo: int, t_hi: int) -> Optional[int]:
        """Earliest second in ``[t_lo, t_hi]`` at which ``pos`` is occupied.

        ``None`` when the cell is free for the whole span.  This is the
        batched form of the wait-probe the intra-strip search issues: a
        stationary probe parked on ``pos`` can only collide at the exact
        seconds some stored segment occupies the cell (unit slopes make
        swaps against a stationary segment impossible), so the answer
        equals ``earliest_block`` of the corresponding wait segment.
        Columnar layouts override this with one scan of the cell's band.
        """
        if t_hi < t_lo:
            return None
        return self.earliest_block(Segment(t_lo, pos, t_hi, pos))

    def clear_entry_time(self, pos: int, t_from: int, t_cap: int) -> Optional[int]:
        """First second in ``[t_from, t_cap]`` at which ``pos`` is free.

        ``None`` when the cell stays occupied through the whole span.
        This batches the per-second occupancy scans of the inter-strip
        crossing probe and the planner's start-delay ladder into one
        call; the default walks point probes but jumps past each
        obstacle with :func:`_entry_clear_time`, so object-backed
        layouts answer identically (if more slowly) than the columnar
        single-scan override.
        """
        t = t_from
        while t <= t_cap:
            hit = self.earliest_conflict(Segment(t, pos, t, pos))
            if hit is None:
                return t
            t = max(t + 1, _entry_clear_time(hit[1], pos, t))
        return None

    def band_clear(self, lo: int, hi: int, t0: int, t1: int) -> bool:
        """Certify "no stored segment touches band [lo, hi] in [t0, t1]".

        ``True`` is a proof of absence; ``False`` only means the layout
        cannot certify it cheaply.  Object-backed layouts have no index
        to answer from, so they always decline — the columnar layout
        overrides this with its per-band interval index.
        """
        return False


class _EmptyStore(SegmentStore):
    """Immutable empty store shared by all strips without traffic."""

    __slots__ = ("queries", "judged", "last_end")

    def __init__(self) -> None:
        self.queries = 0
        self.judged = 0
        self.last_end = -1

    def insert(self, segment: Segment, owner: int = -1) -> None:  # pragma: no cover - guarded
        raise TypeError("the shared empty store is read-only")

    def remove(self, segment: Segment) -> None:
        raise KeyError(f"segment {segment!r} not stored (strip has no traffic)")

    def earliest_conflict(self, segment: Segment) -> Optional[ConflictHit]:
        return None

    def iter_segments(self) -> Iterator[Segment]:
        return iter(())

    def prune(self, before: int) -> int:
        return 0

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def occupied(self, pos: int, t: int) -> bool:
        return False

    def move_blocked(self, t: int, p_from: int, p_to: int) -> bool:
        return False

    def first_occupied(self, pos: int, t_lo: int, t_hi: int) -> Optional[int]:
        return None

    def clear_entry_time(self, pos: int, t_from: int, t_cap: int) -> Optional[int]:
        return t_from if t_from <= t_cap else None

    def band_clear(self, lo: int, hi: int, t0: int, t1: int) -> bool:
        return True


EMPTY_STORE = _EmptyStore()


class StripStoreMap:
    """Lazy per-strip store collection.

    Most strips never see traffic (rack strips, remote aisles), so real
    stores are only materialised on first insert; reads against an
    untouched strip hit a shared immutable empty store.  This keeps the
    planner's resident state — the paper's MC metric — proportional to
    live traffic instead of warehouse size.
    """

    def __init__(
        self, n_strips: int, factory: Callable[[], SegmentStore]
    ) -> None:
        self._n = n_strips
        self._factory = factory
        self._stores: Dict[int, SegmentStore] = {}

    def __getitem__(self, idx: int) -> SegmentStore:
        return self._stores.get(idx, EMPTY_STORE)

    def materialize(self, idx: int) -> SegmentStore:
        """The real (writable) store of a strip, created on demand."""
        store = self._stores.get(idx)
        if store is None:
            if not 0 <= idx < self._n:
                raise IndexError(f"strip index {idx} out of range")
            store = self._stores[idx] = self._factory()
        return store

    def active_items(self) -> Iterator[Tuple[int, SegmentStore]]:
        """(strip_index, store) pairs that hold at least one segment."""
        return iter(self._stores.items())

    def remove(self, idx: int, segment: Segment) -> None:
        """Decommit one segment from a strip's store.

        A store emptied by the removal is dropped, reverting the strip
        to the shared :data:`EMPTY_STORE`, exactly like :meth:`prune`.
        """
        store = self._stores.get(idx)
        if store is None:
            raise KeyError(f"segment {segment!r} not stored (strip {idx} has no traffic)")
        store.remove(segment)
        if len(store) == 0:
            del self._stores[idx]

    def prune(self, before: int) -> int:
        # Emptied stores are dropped, reverting their strips to the
        # shared EMPTY_STORE; a later materialize() builds a fresh one.
        dropped = 0
        for idx in list(self._stores):
            store = self._stores[idx]
            dropped += store.prune(before)
            if len(store) == 0:
                del self._stores[idx]
        return dropped

    def clear(self) -> None:
        self._stores.clear()

    def total_segments(self) -> int:
        return sum(len(s) for s in self._stores.values())

    def __iter__(self) -> Iterator[SegmentStore]:
        """Iterate over the materialised (traffic-bearing) stores."""
        return iter(self._stores.values())

    def __len__(self) -> int:
        return self._n
