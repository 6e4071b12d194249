"""Columnar segment store: the slope index answered from a band index.

:class:`ColumnarSegmentStore` answers exactly the same queries as
:class:`repro.core.slope_index.SlopeIndexedStore` — same blocked times,
same reported blocking segment under ties, same ``last_end`` contract
— from one per-band interval index, which is the only copy of the
data.  Every segment is indexed once per 16-cell position band it
touches, as one :data:`BandEntry`
``(enter, exit, t0, t1, p0, p1, slope, intercept, seq, owner)``: the
closed time interval it spends inside the band, the segment itself,
its insertion sequence number and its owner.  Each band's entries stay
sorted, with a parallel prefix-max of their exits.  That buys three
things the object-per-segment stores cannot offer:

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

A segment touching several bands has one entry in each; counts and
iteration take each segment from its lowest band only.

Tie-break contract (must match the slope index bit-for-bit): the
reported conflict is the minimum over candidates of the key
``(blocked_time, class_rank, t0, seq)`` where ``class_rank`` is 0 for
same-slope candidates and otherwise 1 + the position of the
candidate's slope class in the slope index's fixed ``(0, 1, -1)`` scan
order with the probe's own class skipped.  The slope index keeps each
slope class in bisect-right insertion order on ``t0`` — that is, in
``(t0, seq)`` order — so this key reproduces its "same-slope first,
then classes in scan order, strict ``<`` within a class" selection
exactly.  A segment met in two bands ties with itself, and value-equal
instances report the same obstacle, so which of them wins is
unobservable.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.segments import Segment
from repro.core.store_base import ConflictHit, SegmentStore, _band_time_interval

#: Width (cells) of the position bands of the interval index.
BAND_WIDTH = 16

#: Sentinel larger than any real blocked time or sequence number (both
#: fit in well under 62 bits).
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
#: intercept, seq, owner)``: the closed time interval the segment spends
#: inside the band, the segment itself, then its insertion sequence
#: number and owner query id.  Entries order by ``(enter, exit)`` first,
#: which is all the prefix-max and ``bisect_right(entries, (t, _SENT))``
#: contracts rely on; value-equal instances sit next to each other in
#: ``seq`` order.
BandEntry = Tuple[int, int, int, int, int, int, int, int, int, int]


def _band_entries(segment: Segment, seq: int, owner: int) -> List[Tuple[int, BandEntry]]:
    """``(band, entry)`` for every position band ``segment`` touches."""
    p0, p1 = segment.p0, segment.p1
    pmin, pmax = (p0, p1) if p0 <= p1 else (p1, p0)
    tail = (segment.t0, segment.t1, p0, p1, segment.slope, segment.intercept, seq, owner)
    out: List[Tuple[int, BandEntry]] = []
    for band in range(pmin // BAND_WIDTH, pmax // BAND_WIDTH + 1):
        interval = _band_time_interval(
            segment, band * BAND_WIDTH, band * BAND_WIDTH + BAND_WIDTH - 1
        )
        assert interval is not None  # band range intersects [pmin, pmax]
        out.append((band, interval + tail))
    return out


def _home_band(entry: BandEntry) -> int:
    """The lowest band of ``entry``'s segment, the one that counts it."""
    return min(entry[4], entry[5]) // BAND_WIDTH


class ColumnarSegmentStore(SegmentStore):
    """Band-indexed store, bit-compatible with the slope index.

    See the module docstring for the layout and the tie-break contract.
    Instrumentation note: :attr:`judged` counts the band-slice entries
    :meth:`earliest_conflict` judges (the work the scan actually
    touches; a segment spanning two probed bands counts twice) rather
    than the slope index's per-bucket judgement count; only
    slope-index-specific tests depend on the exact ``judged`` value.
    """

    cheap_scans = True

    __slots__ = ("queries", "judged", "last_end", "_bands", "_maxb", "_size", "_seq")

    def __init__(self) -> None:
        super().__init__()
        #: band index -> sorted entries of the segments touching the band
        self._bands: Dict[int, List[BandEntry]] = {}
        #: band index -> prefix maxima of the exits in ``_bands[band]``
        #: (``_maxb[band][i] == max(e[1] for e in _bands[band][:i+1])``),
        #: so "any interval overlapping [t0, t1]?" is one bisect + one
        #: comparison instead of a scan
        self._maxb: Dict[int, List[int]] = {}
        #: stored segments, value-equal instances counted separately
        self._size = 0
        #: sequence number of the next inserted segment
        self._seq = 0

    # ------------------------------------------------------------------
    # mutation
    def insert(self, segment: Segment, owner: int = -1) -> None:
        seq = self._seq
        self._seq = seq + 1
        for band, entry in _band_entries(segment, seq, owner):
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
        self._size += 1
        self._raise_last_end(segment)

    def remove(self, segment: Segment) -> None:
        # Value-equal instances share their bands and intervals, so in
        # every band they form one run ordered by ``seq``; a probe with
        # ``seq = _SENT`` bisects to just past the run, whose last entry
        # is the latest-inserted instance.  Each instance sits in all of
        # its bands, so only the first band can miss.
        for band, probe in _band_entries(segment, _SENT, -1):
            entries = self._bands.get(band, [])
            at = bisect_left(entries, probe) - 1
            if at < 0 or entries[at][:8] != probe[:8]:
                raise KeyError(f"segment {segment!r} not stored")
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
        self._size -= 1

    def prune(self, before: int) -> int:
        dropped = 0
        for band in list(self._bands):
            entries = self._bands[band]
            kept = [entry for entry in entries if entry[3] >= before]
            if len(kept) == len(entries):
                continue
            dropped += sum(
                1 for entry in entries
                if entry[3] < before and _home_band(entry) == band
            )
            if kept:
                self._bands[band] = kept
                self._maxb[band] = list(accumulate((entry[1] for entry in kept), max))
            else:
                del self._bands[band]
                del self._maxb[band]
        self._size -= dropped
        return dropped

    def clear(self) -> None:
        self._bands = {}
        self._maxb = {}
        self._size = 0
        self.last_end = -1

    # ------------------------------------------------------------------
    # queries
    def __len__(self) -> int:
        return self._size

    def iter_segments(self) -> Iterator[Segment]:
        for band, entries in self._bands.items():
            for entry in entries:
                if _home_band(entry) == band:
                    yield Segment(entry[2], entry[4], entry[3], entry[5])

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
        if not self._size or segment.t0 > self.last_end:
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
                _enter, exit_t, ot0, ot1, _op0, _op1, k, c, seq, _owner = entry
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
                        or (rank == best_rank and (ot0, seq) < (best[2], best[8]))
                    ))
                ):
                    best_t, best_rank, best = cand, rank, entry
        self.judged += judged
        if best is None:
            return None
        return best_t, Segment(best[2], best[4], best[3], best[5])

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
        if t_hi < t_lo or not self._size or t_lo > self.last_end:
            # last_end is a monotone high-water mark over every stored
            # t1, so nothing can occupy any cell after it.
            return None
        best = _SENT
        for _enter, exit_t, t0, t1, p0, _p1, k, c, _seq, _owner in self._band_slice(
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
        if not self._size or t_from > self.last_end:
            return t_from
        intervals: List[Tuple[int, int]] = []
        for _enter, exit_t, t0, t1, p0, _p1, k, c, _seq, _owner in self._band_slice(
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
        (owner -1, e.g. blockages) are excluded.  Advisory: remove-by-
        value drops the latest-inserted value-equal instance whoever
        owns it, so after decommits of duplicated segments the surviving
        attribution may name the other owner.
        """
        return sorted({
            entry[9]
            for entries in self._bands.values()
            for entry in entries
            if entry[9] >= 0 and entry[2] <= t1 and entry[3] >= t0
        })
