"""Common interface of per-strip segment stores.

A *segment store* holds the committed segments of one strip and answers
the question Algorithm 2 needs: given a candidate segment, what is the
earliest time at which it becomes blocked by an existing segment — and
by *which* segment.  Knowing the blocking segment lets the intra-strip
search jump its waiting time directly past the obstacle instead of
probing second by second.

Two implementations exist:

* :class:`repro.core.naive_store.NaiveSegmentStore` — Section V-B's
  ordered set with linear judgement;
* :class:`repro.core.slope_index.SlopeIndexedStore` — Section V-D's
  slope-based index (Algorithm 3).

Both also answer point-occupancy queries, which the grid-level A*
fallback uses to stay consistent with previously committed routes.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.core.segments import Segment

#: (blocked_time, blocking_segment)
ConflictHit = Tuple[int, Segment]

#: Opaque, equality-compared content fingerprint of a store region;
#: element shape is store-specific (see :meth:`SegmentStore.band_signature`).
BandSignature = Tuple[object, ...]

#: Upper bound standing in for "no segment ever blocks this band again";
#: free-flow windows reported by :meth:`SegmentStore.free_window` use it
#: as their open right end.
FOREVER = 1 << 60


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

#: Process-wide monotone source of store versions.  Every content
#: mutation of any store takes a fresh value, so two distinct content
#: states never share a version — even across store *instances*.  That
#: last property is what lets :class:`StripStoreMap.prune` drop an
#: emptied store and later materialise a fresh one for the same strip
#: without any risk of a stale :mod:`repro.core.plan_cache` entry keyed
#: on the old incarnation being served against the new one.
_VERSION_COUNTER = itertools.count(1)


def next_version() -> int:
    """A fresh globally-unique content version.

    Shared by the segment stores and the
    :class:`repro.core.crossings.CrossingLedger` so every piece of
    committed-traffic state draws from one monotone staleness signal.
    """
    return next(_VERSION_COUNTER)


class SegmentStore(ABC):
    """Committed segments of one strip plus collision queries."""

    __slots__ = ()

    #: True when full scans of this store are cheap enough that the
    #: certificate layer should not throttle itself on store size (see
    #: ``repro.core.inter_strip._CERT_STORE_MAX``).  Array-backed
    #: layouts with an incremental band interval index set this;
    #: object-backed layouts keep the size throttle.
    cheap_scans: bool = False

    def __init__(self) -> None:
        #: number of earliest_conflict queries served (instrumentation)
        self.queries = 0
        #: number of pairwise judgements performed (instrumentation)
        self.judged = 0
        #: content version: changes exactly when the stored segment set
        #: changes (insert, effective prune, effective clear).  Cache
        #: keys derived from it are therefore never stale.
        self.version = next(_VERSION_COUNTER)
        #: high-water mark over the end times of every segment *ever*
        #: inserted: an upper bound on the latest end among the stored
        #: segments, maintained in O(1).  ``t > last_end`` certifies the
        #: whole strip is traffic-free from ``t`` on — the degenerate
        #: free-flow window ``(last_end + 1, FOREVER)`` for every band —
        #: without touching a single segment.  ``remove``/``prune`` leave
        #: it (possibly stale-high, which only costs certificate hits,
        #: never soundness); ``clear`` resets it.
        self.last_end = -1

    def _bump_version(self) -> None:
        """Take a fresh globally-unique version after a content change."""
        self.version = next(_VERSION_COUNTER)

    def _bump_insert(self, segment: Segment) -> None:
        """Version bump plus :attr:`last_end` upkeep, for insert paths."""
        if segment.t1 > self.last_end:
            self.last_end = segment.t1
        self.version = next(_VERSION_COUNTER)

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

        Bumps the content version exactly like :meth:`insert`, which is
        what keeps :mod:`repro.core.plan_cache` entries valid for free.
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

    def free_window(
        self, lo: int, hi: int, t0: int, t1: int
    ) -> Optional[Tuple[int, int]]:
        """Maximal time window around ``[t0, t1]`` with an empty band.

        Returns ``(w_lo, w_hi)`` such that ``w_lo <= t0 <= t1 <= w_hi``
        and *no* stored segment is inside the position band ``[lo, hi]``
        at any time in ``[w_lo, w_hi]`` — a *free-flow certificate*: any
        unit-speed move confined to the band whose whole time span lies
        inside the window is provably collision-free against this store
        state.  ``w_hi`` may be :data:`FOREVER`.  Returns ``None`` when
        some segment enters the band during ``[t0, t1]`` itself (the
        certificate is conservative: a segment inside the band need not
        actually conflict with a particular move).

        The window describes *this* content state; callers must key any
        cached use of it on :attr:`version`.
        """
        w_lo, w_hi = 0, FOREVER
        for segment in self.iter_segments():
            interval = _band_time_interval(segment, lo, hi)
            if interval is None:
                continue
            a, b = interval
            if a <= t1 and b >= t0:
                return None
            if b < t0:
                if b >= w_lo:
                    w_lo = b + 1
            elif a - 1 < w_hi:
                w_hi = a - 1
        return w_lo, w_hi

    def band_signature(self, lo: int, hi: int, t0: int, t1: int) -> BandSignature:
        """Canonical fingerprint of the segments able to affect probes in a region.

        The region is the position band ``[lo, hi]`` crossed with the
        time span ``[t0, t1]``.  The signature is the ordered tuple of
        raw ``(t0, p0, t1, p1)`` tuples of every stored segment whose
        position range and time span both intersect the region — a
        superset of the segments any :meth:`earliest_conflict` probe
        confined to the region could collide with.

        **Contract:** the order must follow the store's own candidate
        scan order, so that *equal* signatures on two content states
        guarantee every probe confined to the region answers identically
        on both — including which blocking segment is reported when two
        candidates tie on the blocked time.  The default implementation
        relies on :meth:`iter_segments` following that scan order;
        stores whose scan order differs must override.
        """
        return tuple(
            s.raw
            for s in self.iter_segments()
            if s.t0 <= t1
            and s.t1 >= t0
            and (s.p0 if s.p0 <= s.p1 else s.p1) <= hi
            and (s.p0 if s.p0 >= s.p1 else s.p1) >= lo
        )

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

    def scan_cost_hint(self, lo: int, hi: int, t0: int, t1: int) -> int:
        """Upper-bound estimate of the entries a region scan would touch.

        The certificate layer uses this to judge, per probe region,
        whether minting a certificate is worth its scan; without an
        index the store size itself is the only available bound.
        """
        return len(self)


class _EmptyStore(SegmentStore):
    """Immutable empty store shared by all strips without traffic."""

    __slots__ = ("queries", "judged", "version", "last_end")

    def __init__(self) -> None:
        self.queries = 0
        self.judged = 0
        self.last_end = -1
        # Version 0 is reserved for "no traffic at all".  Every strip
        # without a materialised store shares it, which is sound: a
        # planning result against an empty store depends only on the
        # query, so such cache entries stay valid whenever the strip is
        # (or becomes, after pruning) empty again.
        self.version = 0

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

    def free_window(self, lo: int, hi: int, t0: int, t1: int) -> Optional[Tuple[int, int]]:
        return 0, FOREVER

    def band_signature(self, lo: int, hi: int, t0: int, t1: int) -> BandSignature:
        return ()

    def first_occupied(self, pos: int, t_lo: int, t_hi: int) -> Optional[int]:
        return None

    def clear_entry_time(self, pos: int, t_from: int, t_cap: int) -> Optional[int]:
        return t_from if t_from <= t_cap else None

    def band_clear(self, lo: int, hi: int, t0: int, t1: int) -> bool:
        return True

    def scan_cost_hint(self, lo: int, hi: int, t0: int, t1: int) -> int:
        return 0


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

    def version_of(self, idx: int) -> int:
        """Content version of a strip's store (0 for untouched strips)."""
        return self._stores.get(idx, EMPTY_STORE).version

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
        to the shared :data:`EMPTY_STORE` (version 0) — sound for the
        same reason :meth:`prune` may drop emptied stores: version-0
        cache entries describe a traffic-free strip, which the strip now
        is again.
        """
        store = self._stores.get(idx)
        if store is None:
            raise KeyError(f"segment {segment!r} not stored (strip {idx} has no traffic)")
        store.remove(segment)
        if len(store) == 0:
            del self._stores[idx]

    def prune(self, before: int) -> int:
        # Dropping an emptied store reverts the strip to EMPTY_STORE
        # (version 0), whose cache entries describe a traffic-free strip
        # and are therefore valid again.  A later materialize() builds a
        # brand-new store whose versions come from the global counter,
        # so cache entries keyed on the dropped incarnation can never be
        # resurrected.
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
