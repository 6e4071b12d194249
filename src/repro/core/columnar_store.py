"""Columnar (array-backed) segment store: the slope index over flat columns.

:class:`ColumnarSegmentStore` answers exactly the same queries as
:class:`repro.core.slope_index.SlopeIndexedStore` — same blocked times,
same reported blocking segment under ties, same ``last_end`` contract
— but stores segments as seven parallel flat integer columns
(``array('q')``) sorted by start time instead of one Python object per
segment:

``t0 | t1 | p0 | p1 | slope | intercept | owner``

Besides the columns, every segment is indexed once per 16-cell position
band it touches, as one :data:`BandEntry`
``(enter, exit, t0, t1, p0, p1, slope, intercept)``: the closed time
interval it spends inside the band followed by the segment itself.
Each band's entries stay sorted, with a parallel prefix-max of their
exits.  That buys three things the object-per-segment stores cannot
offer:

* **O(log n) negative answers.**  :meth:`band_clear` decides "no stored
  segment touches this band during this span" with one ``bisect`` and
  one comparison per band; the inter-strip search's free-flow and
  crossing fast paths rest on it (:attr:`cheap_scans`).
* **Band-sliced scans.**  :meth:`earliest_conflict`,
  :meth:`first_occupied` and :meth:`clear_entry_time` judge only the
  entries ``bisect_left(maxb, t_lo, 0, n) <= j < n`` of the bands the
  probe covers, where ``n = bisect_right(entries, (t_hi, _SENT))``:
  every earlier entry left the band before ``t_lo`` (the prefix max
  says so), every later one enters after ``t_hi``.  Every conflict kind
  (same-line, crossing, swap) and every occupancy puts the other
  segment inside the probe's position range at an integer second of
  the probe's span, so the slices hold every segment that can answer
  the query — typically a handful, where the strip-wide ``t0`` window
  holds every segment of the strip alive at the same time.
* **Batched occupancy scans.**  :meth:`first_occupied` and
  :meth:`clear_entry_time` answer a whole time span per call from one
  slice scan, where the object stores replay per-second point probes.

Tie-break contract (must match the slope index bit-for-bit): the
reported conflict is the minimum over candidates of the key
``(blocked_time, class_rank, column_index)`` where ``class_rank`` is 0
for same-slope candidates and otherwise 1 + the position of the
candidate's slope class in the slope index's fixed ``(0, 1, -1)`` scan
order with the probe's own class skipped.  Restricting the t0-sorted
combined columns to one slope class reproduces that class's per-slope
list order (both are bisect-right insertion orders on ``t0``), so this
key reproduces the slope index's "same-slope first, then classes in
scan order, strict ``<`` within a class" selection exactly.  The band
scans visit candidates in band order, not column order, and meet a
segment once per band it touches, so they compare
``(blocked_time, class_rank, t0)`` — the columns are sorted by ``t0`` —
and resolve a tie between two *distinct* segments with equal ``t0`` by
looking up their column indices.  Value-equal instances report the
same obstacle, so which of them wins is unobservable.

Zero-copy views and resize safety: numpy views are built with
``np.frombuffer`` over the live ``array('q')`` buffers and cached until
the next mutation.  CPython refuses to resize an array whose buffer is
exported, so every mutating method drops the cached views *before*
touching a column; query methods never let a view escape.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.core.segments import Segment
from repro.core.store_base import ConflictHit, SegmentStore, _band_time_interval

#: Width (cells) of the position bands of the interval index.
BAND_WIDTH = 16

#: Sentinel larger than any real blocked time (times fit in well under
#: 62 bits).
_SENT = 1 << 62

#: ``(probe_slope, candidate_slope) -> tie-break rank`` reproducing the
#: slope index's scan order: same slope first (rank 0), then the classes
#: ``(0, 1, -1)`` in order with the probe's own class skipped.
_CLASS_RANK: Dict[Tuple[int, int], int] = {}
for _m in (-1, 0, 1):
    _rank = 1
    for _k in (0, 1, -1):
        if _k == _m:
            _CLASS_RANK[(_m, _k)] = 0
        else:
            _CLASS_RANK[(_m, _k)] = _rank
            _rank += 1
del _m, _k, _rank

#: One per-band index entry ``(enter, exit, t0, t1, p0, p1, slope,
#: intercept)``: the closed time interval the segment spends inside the
#: band, then the segment itself, so band scans judge candidates without
#: touching the columns.  Entries order by ``(enter, exit)`` first, which
#: is all the prefix-max and ``bisect_right(entries, (t, _SENT))``
#: contracts rely on.
BandEntry = Tuple[int, int, int, int, int, int, int, int]


def _band_entries(segment: Segment) -> List[Tuple[int, BandEntry]]:
    """``(band, entry)`` for every position band ``segment`` touches."""
    p0, p1 = segment.p0, segment.p1
    pmin, pmax = (p0, p1) if p0 <= p1 else (p1, p0)
    tail = (segment.t0, segment.t1, p0, p1, segment.slope, segment.intercept)
    out: List[Tuple[int, BandEntry]] = []
    for band in range(pmin // BAND_WIDTH, pmax // BAND_WIDTH + 1):
        interval = _band_time_interval(
            segment, band * BAND_WIDTH, band * BAND_WIDTH + BAND_WIDTH - 1
        )
        assert interval is not None  # band range intersects [pmin, pmax]
        out.append((band, interval + tail))
    return out


class ColumnarSegmentStore(SegmentStore):
    """Array-backed store, bit-compatible with the slope index.

    See the module docstring for the layout and the tie-break contract.
    Instrumentation note: :attr:`judged` counts the band-slice entries
    :meth:`earliest_conflict` judges (the work the scan actually
    touches; a segment spanning two probed bands counts twice) rather
    than the slope index's per-bucket judgement count; only
    slope-index-specific tests depend on the exact ``judged`` value.
    """

    cheap_scans = True

    __slots__ = (
        "queries", "judged", "last_end",
        "_t0", "_t1", "_p0", "_p1", "_k", "_c", "_own",
        "_bands", "_maxb", "_np",
    )

    def __init__(self) -> None:
        super().__init__()
        self._t0 = array("q")
        self._t1 = array("q")
        self._p0 = array("q")
        self._p1 = array("q")
        self._k = array("q")
        self._c = array("q")
        self._own = array("q")
        #: band index -> sorted entries of the segments touching the band
        self._bands: Dict[int, List[BandEntry]] = {}
        #: band index -> prefix maxima of the exits in ``_bands[band]``
        #: (``_maxb[band][i] == max(e[1] for e in _bands[band][:i+1])``),
        #: so "any interval overlapping [t0, t1]?" is one bisect + one
        #: comparison instead of a scan
        self._maxb: Dict[int, List[int]] = {}
        #: cached zero-copy int64 views of the columns (dropped on mutation)
        self._np: Optional[Tuple[NDArray[np.int64], ...]] = None

    # ------------------------------------------------------------------
    # views
    def _views(self) -> Tuple[NDArray[np.int64], ...]:
        views = self._np
        if views is None:
            views = tuple(
                np.frombuffer(col, dtype=np.int64)
                for col in (self._t0, self._t1, self._p0, self._p1,
                            self._k, self._c, self._own)
            )
            self._np = views
        return views

    # ------------------------------------------------------------------
    # mutation
    def insert(self, segment: Segment, owner: int = -1) -> None:
        self._np = None  # release buffer exports before resizing
        t0 = segment.t0
        idx = bisect_right(self._t0, t0)
        self._t0.insert(idx, t0)
        self._t1.insert(idx, segment.t1)
        self._p0.insert(idx, segment.p0)
        self._p1.insert(idx, segment.p1)
        self._k.insert(idx, segment.slope)
        self._c.insert(idx, segment.intercept)
        self._own.insert(idx, owner)
        for band, entry in _band_entries(segment):
            entries = self._bands.get(band)
            if entries is None:
                self._bands[band] = [entry]
                self._maxb[band] = [entry[1]]
            else:
                at = bisect_right(entries, entry)
                entries.insert(at, entry)
                maxb = self._maxb[band]
                exit_t = entry[1]
                prev = maxb[at - 1] if at > 0 else -1
                maxb.insert(at, exit_t if exit_t > prev else prev)
                # Entries after ``at`` already hold the prefix-max over
                # everything before them except the new interval, so the
                # new exit only needs folding in until it stops winning —
                # the old running max is non-decreasing, so the first
                # slot it does not raise ends the walk.
                for j in range(at + 1, len(maxb)):
                    if maxb[j] < exit_t:
                        maxb[j] = exit_t
                    else:
                        break
        self._raise_last_end(segment)

    def remove(self, segment: Segment) -> None:
        t0 = segment.t0
        lo = bisect_left(self._t0, t0)
        hi = bisect_right(self._t0, t0, lo)
        found = -1
        for i in range(lo, hi):
            if (
                self._t1[i] == segment.t1
                and self._p0[i] == segment.p0
                and self._p1[i] == segment.p1
            ):
                found = i  # keep scanning: drop the *last* equal instance
        if found < 0:
            raise KeyError(f"segment {segment!r} not stored")
        self._np = None  # release buffer exports before resizing
        del self._t0[found]
        del self._t1[found]
        del self._p0[found]
        del self._p1[found]
        del self._k[found]
        del self._c[found]
        del self._own[found]
        for band, entry in _band_entries(segment):
            entries = self._bands[band]
            at = bisect_left(entries, entry)
            entries.pop(at)
            maxb = self._maxb[band]
            maxb.pop()
            if not entries:
                del self._bands[band]
                del self._maxb[band]
            else:
                run = maxb[at - 1] if at > 0 else -1
                for j in range(at, len(entries)):
                    end = entries[j][1]
                    if end > run:
                        run = end
                    maxb[j] = run

    def prune(self, before: int) -> int:
        n = len(self._t0)
        if n == 0:
            return 0
        keep = [i for i in range(n) if self._t1[i] >= before]
        dropped = n - len(keep)
        if dropped == 0:
            return 0
        self._np = None  # old columns die with their buffer exports
        self._t0 = array("q", [self._t0[i] for i in keep])
        self._t1 = array("q", [self._t1[i] for i in keep])
        self._p0 = array("q", [self._p0[i] for i in keep])
        self._p1 = array("q", [self._p1[i] for i in keep])
        self._k = array("q", [self._k[i] for i in keep])
        self._c = array("q", [self._c[i] for i in keep])
        self._own = array("q", [self._own[i] for i in keep])
        self._bands = {}
        for segment in self.iter_segments():
            for band, entry in _band_entries(segment):
                self._bands.setdefault(band, []).append(entry)
        self._maxb = {}
        for band, entries in self._bands.items():
            entries.sort()
            run = -1
            maxb = []
            for entry in entries:
                if entry[1] > run:
                    run = entry[1]
                maxb.append(run)
            self._maxb[band] = maxb
        return dropped

    def clear(self) -> None:
        self._np = None
        self._t0 = array("q")
        self._t1 = array("q")
        self._p0 = array("q")
        self._p1 = array("q")
        self._k = array("q")
        self._c = array("q")
        self._own = array("q")
        self._bands = {}
        self._maxb = {}
        self.last_end = -1

    # ------------------------------------------------------------------
    # queries
    def __len__(self) -> int:
        return len(self._t0)

    def iter_segments(self) -> Iterator[Segment]:
        for i in range(len(self._t0)):
            yield Segment(self._t0[i], self._p0[i], self._t1[i], self._p1[i])

    def band_clear(self, lo: int, hi: int, t0: int, t1: int) -> bool:
        """True when *no* stored segment touches band [lo, hi] in [t0, t1].

        Decided purely from the per-band interval index: a segment
        inside the band during the span would put its (band-aligned,
        hence superset) time interval in overlap with ``[t0, t1]``, so
        "no indexed interval overlaps" soundly certifies the negative.
        One ``bisect`` plus one prefix-max comparison per band; ``False``
        only means "cannot certify cheaply" (the band over-covers
        ``[lo, hi]``), never "there is a conflict".
        """
        bands = self._bands
        maxbs = self._maxb
        for band in range(lo // BAND_WIDTH, hi // BAND_WIDTH + 1):
            entries = bands.get(band)
            if not entries:
                continue
            # entries with enter <= t1, as a sorted prefix
            n = bisect_right(entries, (t1, _SENT))
            if n and maxbs[band][n - 1] >= t0:
                return False
        return True

    def earliest_conflict(self, segment: Segment) -> Optional[ConflictHit]:
        self.queries += 1
        if len(self._t0) == 0 or segment.t0 > self.last_end:
            return None
        qt0, qt1 = segment.t0, segment.t1
        p0, p1 = segment.p0, segment.p1
        pmin, pmax = (p0, p1) if p0 <= p1 else (p1, p0)
        m, cq = segment.slope, segment.intercept
        judged = 0
        best_t = 0
        best_rank = 0
        best: Optional[BandEntry] = None
        for band in range(pmin // BAND_WIDTH, pmax // BAND_WIDTH + 1):
            for entry in self._band_slice(band, qt0, qt1):
                _enter, exit_t, ot0, ot1, _op0, _op1, k, c = entry
                if exit_t < qt0:
                    continue
                judged += 1
                low = qt0 if qt0 > ot0 else ot0
                high = qt1 if qt1 < ot1 else ot1
                if k == m:
                    if c != cq:
                        continue
                    cand = low
                else:
                    den = k - m
                    num = cq - c
                    if den < 0:
                        den = -den
                        num = -num
                    if den == 1:
                        if num < low or num > high:
                            continue
                        cand = num
                    elif num & 1:
                        after = ((num - 1) >> 1) + 1
                        if after - 1 < low or after > high:
                            continue
                        cand = after
                    else:
                        cand = num >> 1
                        if cand < low or cand > high:
                            continue
                rank = _CLASS_RANK[(m, k)]
                if (
                    best is None
                    or cand < best_t
                    or (cand == best_t and (
                        rank < best_rank
                        or (rank == best_rank and self._precedes(entry, best))
                    ))
                ):
                    best_t, best_rank, best = cand, rank, entry
        self.judged += judged
        if best is None:
            return None
        return best_t, Segment(best[2], best[4], best[3], best[5])

    def _precedes(self, a: BandEntry, b: BandEntry) -> bool:
        """True when ``a``'s segment sits before ``b``'s in column order.

        Columns are sorted by ``t0``; only distinct segments sharing a
        ``t0`` need their column indices looked up.  Value-equal
        segments (the same segment seen from two bands, or a stored
        duplicate) never precede each other.
        """
        if a[2] != b[2]:
            return a[2] < b[2]
        if a[3:6] == b[3:6]:
            return False
        return self._column_index(a) < self._column_index(b)

    def _column_index(self, entry: BandEntry) -> int:
        """Lowest column index holding ``entry``'s segment."""
        t1a, p0a, p1a = self._t1, self._p0, self._p1
        _enter, _exit, t0, t1, p0, p1, _k, _c = entry
        i = bisect_left(self._t0, t0)
        while t1a[i] != t1 or p0a[i] != p0 or p1a[i] != p1:
            i += 1
        return i

    def _band_slice(self, band: int, t_lo: int, t_hi: int) -> List[BandEntry]:
        """Entries of ``band`` that can sit in it during [t_lo, t_hi].

        Entries before the returned slice left the band before ``t_lo``
        (the prefix max of their exits is below it); entries after it
        enter after ``t_hi``.  Entries inside may still have left before
        ``t_lo`` — callers check ``exit``.
        """
        entries = self._bands.get(band)
        if not entries:
            return []
        n = bisect_right(entries, (t_hi, _SENT))
        if not n:
            return []
        maxb = self._maxb[band]
        if maxb[n - 1] < t_lo:
            return []
        return entries[bisect_left(maxb, t_lo, 0, n):n]

    # ------------------------------------------------------------------
    # batched occupancy scans
    def first_occupied(self, pos: int, t_lo: int, t_hi: int) -> Optional[int]:
        self.queries += 1
        if t_hi < t_lo or len(self._t0) == 0 or t_lo > self.last_end:
            # last_end is a monotone high-water mark over every stored
            # t1, so nothing can occupy any cell after it.
            return None
        best = _SENT
        for _enter, exit_t, t0, t1, p0, _p1, k, c in self._band_slice(
            pos // BAND_WIDTH, t_lo, t_hi
        ):
            if exit_t < t_lo:
                continue
            if k == 0:
                if p0 != pos:
                    continue
                cand = t0 if t0 > t_lo else t_lo
            else:
                cand = (pos - c) * k
                if cand < t0 or cand > t1 or cand < t_lo or cand > t_hi:
                    continue
            if cand < best:
                best = cand
                if best <= t_lo:
                    break
        return None if best == _SENT else best

    def clear_entry_time(self, pos: int, t_from: int, t_cap: int) -> Optional[int]:
        self.queries += 1
        if t_from > t_cap:
            return None
        if len(self._t0) == 0 or t_from > self.last_end:
            return t_from
        intervals: List[Tuple[int, int]] = []
        for _enter, exit_t, t0, t1, p0, _p1, k, c in self._band_slice(
            pos // BAND_WIDTH, t_from, t_cap
        ):
            if exit_t < t_from:
                continue
            if k == 0:
                if p0 != pos:
                    continue
                a, b = t0, t1
            else:
                t_pass = (pos - c) * k
                if t_pass < t0 or t_pass > t1:
                    continue
                a = b = t_pass
            if b < t_from or a > t_cap:
                continue
            intervals.append((a, b))
        if not intervals:
            return t_from
        intervals.sort()
        cursor = t_from
        for a, b in intervals:
            if a > cursor:
                return cursor
            if b >= cursor:
                cursor = b + 1
                if cursor > t_cap:
                    return None
        return cursor

    # ------------------------------------------------------------------
    # audit
    def owners_overlapping(self, t0: int, t1: int) -> List[int]:
        """Sorted distinct owner query-ids with a segment alive in [t0, t1].

        Owners are recorded by :meth:`insert`; unattributed segments
        (owner -1, e.g. blockages) are excluded.  Advisory: value-equal
        segments from different owners are indistinguishable to
        remove-by-value, so after decommits of duplicated segments the
        surviving attribution may name either owner.
        """
        if len(self._t0) == 0:
            return []
        views = self._views()
        mask = (views[0] <= t1) & (views[1] >= t0) & (views[6] >= 0)
        owners = {int(o) for o in views[6][mask].tolist()}
        return sorted(owners)
