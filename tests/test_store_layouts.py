"""Layout-equivalence suite: columnar vs. object-backed stores.

The columnar store (``repro.core.columnar_store``) re-implements the
slope-indexed store over flat integer arrays.  Its contract is *bit
identity*: every query answer, every version-bump pattern, and every
end-to-end route must match the object-backed implementation exactly.
These tests drive both layouts through the same randomised
commit/decommit/prune/query interleavings and compare everything
observable.

``free_window`` is the one deliberate exception: the columnar band
fast path may return a *narrower* (still sound) window than the exact
scan, so only the None-decision — which gates planner behaviour — is
compared here; soundness and containment are covered for all store
classes by ``test_free_windows``.
"""

import operator

import pytest
from hypothesis import given, settings, strategies as st

from repro import Query, SRPPlanner
from repro.analysis.validate import audit_planner_state
from repro.core.columnar_store import BAND_WIDTH, ColumnarSegmentStore
from repro.core.segments import Segment
from repro.core.slope_index import SlopeIndexedStore

from tests.test_free_windows import _OP, _apply_ops, _warehouse, segment_strategy

# ---------------------------------------------------------------------------
# store-level op interleavings
# ---------------------------------------------------------------------------

#: positions of the wide op variant: four bands, so segments, holds and
#: probes cross band edges
_WIDE_P = 3 * BAND_WIDTH + 4
#: start times of the wide variant, kept short so its segments crowd
_WIDE_T = 10


def _hold_strategy():
    """Long-lived waits (blockage-like): their exits pin the band prefix max."""
    return st.builds(
        lambda t0, pos, length: Segment(t0, pos, t0 + length, pos),
        st.integers(0, _WIDE_T),
        st.integers(0, _WIDE_P),
        st.integers(40, 400),
    )


def _inserts(segments):
    return st.tuples(st.just("insert"), segments, st.integers(-1, 5))


def _store_op(inserts, probes, max_p, max_t, max_span):
    """One mutation or query over positions ``0..max_p``, times ``0..max_t``.

    Mutations are replayed on both layouts; queries must answer
    identically.
    """
    spans = st.tuples(st.integers(0, max_t), st.integers(0, max_span))
    return st.one_of(
        inserts,
        st.tuples(st.just("remove"), st.integers(0, 10 ** 6), st.just(0)),
        st.tuples(st.just("prune"), st.integers(0, max_t), st.just(0)),
        st.tuples(st.just("clear"), st.just(0), st.just(0)),
        st.tuples(st.just("conflict"), probes, st.just(0)),
        st.tuples(st.just("occupied"), st.integers(0, max_p), st.integers(0, max_t)),
        st.tuples(st.just("first_occupied"), st.integers(0, max_p), spans),
        st.tuples(st.just("clear_entry"), st.integers(0, max_p), spans),
        st.tuples(
            st.just("free_window"),
            st.tuples(st.integers(0, max_p), st.integers(0, 6)),
            spans,
        ),
    )


_WIDE_SEGMENTS = segment_strategy(max_t=_WIDE_T, max_p=_WIDE_P, max_len=24)
_WIDE_INSERTS = st.one_of(
    _inserts(_WIDE_SEGMENTS),
    _inserts(segment_strategy(max_t=2, max_p=_WIDE_P, max_len=24)),
    st.tuples(st.just("insert"), _hold_strategy(), st.just(-1)),
)

#: op sequences of two variants.  The narrow one keeps positions in
#: 0-12, nearly all in band 0.  The wide one spreads segments and probes
#: over four bands, mixes in long-lived holds and segments with start
#: times in {0, 1, 2} (so distinct segments share ``t0``), and opens
#: with a burst of inserts so its probes meet a populated store.
_STORE_OPS = st.one_of(
    st.lists(
        _store_op(_inserts(segment_strategy()), segment_strategy(), 12, 40, 12),
        min_size=1,
        max_size=30,
    ),
    st.builds(
        operator.add,
        st.lists(_WIDE_INSERTS, min_size=8, max_size=30),
        st.lists(
            _store_op(_WIDE_INSERTS, _WIDE_SEGMENTS, _WIDE_P, _WIDE_T + 24, 24),
            min_size=1,
            max_size=30,
        ),
    ),
)


def _drive(store, ops):
    """Replay ``ops`` on one store; return the observable-outcome log.

    Version numbers come from a process-global counter, so their
    absolute values differ between two stores driven side by side; the
    log therefore records the *bump pattern* (did this op change the
    version?) plus every query answer and the post-op segment multiset.
    """
    log = []
    live = []
    for kind, a, b in ops:
        before = store.version
        if kind == "insert":
            store.insert(a, owner=b)
            live.append(a)
        elif kind == "remove":
            if live:
                victim = live.pop(a % len(live))
                store.remove(victim)
            else:
                with pytest.raises(KeyError):
                    store.remove(Segment(0, 0, 0, 0))
        elif kind == "prune":
            dropped = store.prune(a)
            live = [s for s in live if s.t1 >= a]
            log.append(("dropped", dropped))
        elif kind == "clear":
            store.clear()
            live = []
        elif kind == "conflict":
            log.append(("conflict", store.earliest_conflict(a)))
            log.append(("block", store.earliest_block(a)))
        elif kind == "occupied":
            log.append(("occupied", store.occupied(a, b)))
        elif kind == "first_occupied":
            t_lo, span = b
            log.append(("first", store.first_occupied(a, t_lo, t_lo + span)))
        elif kind == "clear_entry":
            t_from, span = b
            log.append(("entry", store.clear_entry_time(a, t_from, t_from + span)))
        else:  # free_window — compare the None-decision only (see module doc)
            lo, width = a
            t0, span = b
            window = store.free_window(lo, lo + width, t0, t0 + span)
            log.append(("window-none", window is None))
        log.append(("bump", store.version != before, len(store)))
    log.append(
        ("segments", sorted((s.t0, s.p0, s.t1, s.p1) for s in store.iter_segments()))
    )
    log.append(("last_end", store.last_end))
    return log


@settings(max_examples=200, deadline=None)
@given(ops=_STORE_OPS)
def test_columnar_matches_slope_index(ops):
    assert _drive(ColumnarSegmentStore(), ops) == _drive(SlopeIndexedStore(), ops)


# Two distinct segments can tie on (blocked time, class rank, t0) only
# by sharing start point and line and differing in length, so they touch
# different sets of bands.  Per band the index sorts the shorter one
# first, while the columns hold them in insertion order: the conflict
# scan has to fall back to column order to report the slope index's
# obstacle.  Line p = 14 + t: SHORT leaves band 0 for band 1, LONG
# reaches band 2.
_SHORT = Segment(0, 14, 4, 18)
_LONG = Segment(0, 14, 20, 34)

#: probes that both segments block at the same second
_TIE_PROBES = [
    Segment(0, 20, 8, 12),  # opposite slope, bands 0-1: vertex at t=3, p=17
    Segment(0, 21, 10, 11),  # opposite slope, bands 0-1: swap at t=3.5
    Segment(0, 17, 6, 17),  # wait in band 1: crossed at t=3
    Segment(0, 15, 6, 15),  # wait in band 0: crossed at t=1
    Segment(1, 15, 3, 17),  # same line: blocked at once, t=1
]


@pytest.mark.parametrize("probe", _TIE_PROBES)
@pytest.mark.parametrize(
    "inserts, removes, expected",
    [
        ((_LONG, _SHORT), (), _LONG),
        ((_SHORT, _LONG), (), _SHORT),
        # remove() drops the *last* value-equal instance: SHORT keeps
        # column 0 and still wins
        ((_SHORT, _LONG, _SHORT), (_SHORT,), _SHORT),
        ((_LONG, _SHORT, _LONG), (_LONG,), _LONG),
    ],
)
def test_conflict_tie_break_follows_column_order(probe, inserts, removes, expected):
    hits = []
    for store in (ColumnarSegmentStore(), SlopeIndexedStore()):
        for segment in inserts:
            store.insert(segment)
        for segment in removes:
            store.remove(segment)
        hits.append(store.earliest_conflict(probe))
    assert hits[0] is not None and hits[0][1] == expected
    assert hits[0][0] == hits[1][0] and hits[0][1] == hits[1][1]


@given(segments=st.lists(segment_strategy(), min_size=0, max_size=12))
@settings(max_examples=60, deadline=None)
def test_owner_column_tracks_spans(segments):
    store = ColumnarSegmentStore()
    for owner, seg in enumerate(segments):
        store.insert(seg, owner=owner)
    for t0 in range(0, 40, 7):
        t1 = t0 + 5
        expected = sorted(
            owner
            for owner, seg in enumerate(segments)
            if seg.t0 <= t1 and seg.t1 >= t0
        )
        assert store.owners_overlapping(t0, t1) == expected


def test_owner_defaults_to_anonymous():
    store = ColumnarSegmentStore()
    store.insert(Segment(0, 0, 4, 4))
    assert store.owners_overlapping(0, 10) == []


# ---------------------------------------------------------------------------
# planner-level bit identity
# ---------------------------------------------------------------------------


def test_layout_knob_validation():
    warehouse = _warehouse()
    planner = SRPPlanner(warehouse)
    assert planner.store_layout == "columnar"  # slope default
    assert SRPPlanner(warehouse, store="naive").store_layout == "object"
    assert SRPPlanner(warehouse, store_layout="object").store_layout == "object"
    with pytest.raises(ValueError):
        SRPPlanner(warehouse, store_layout="rowwise")
    with pytest.raises(ValueError):
        SRPPlanner(warehouse, store="naive", store_layout="columnar")


@settings(max_examples=25, deadline=None)
@given(ops=st.lists(_OP, min_size=1, max_size=12))
def test_layouts_identical_under_fault_interleavings(ops):
    """Columnar and object layouts plan bit-identical routes.

    The op stream includes blockages, prunes and mid-flight replans, so
    equality covers the commit *and* decommit paths, faulted legs
    included.
    """
    warehouse = _warehouse()
    columnar = _apply_ops(SRPPlanner(warehouse, store_layout="columnar"), ops)
    object_backed = _apply_ops(SRPPlanner(warehouse, store_layout="object"), ops)
    assert columnar == object_backed


@settings(max_examples=15, deadline=None)
@given(ops=st.lists(_OP, min_size=1, max_size=12))
def test_columnar_cache_off_identical(ops):
    """Within the columnar layout, the cache stays behaviour-invisible."""
    warehouse = _warehouse()
    cached = _apply_ops(SRPPlanner(warehouse, store_layout="columnar"), ops)
    uncached = _apply_ops(
        SRPPlanner(warehouse, store_layout="columnar", cache=False), ops
    )
    assert cached == uncached


def _plan_day(planner):
    free = sorted(planner.warehouse.free_cells())
    routes = []
    qid = 0
    for i in range(0, len(free) - 4, 3):
        query = Query(free[i], free[i + 3], i % 5, query_id=qid)
        qid += 1
        try:
            routes.append(planner.plan(query))
        except Exception:
            pass
    return routes


def test_audit_agrees_across_layouts():
    """Both layouts survive the stores-vs-routes audit with zero findings."""
    warehouse = _warehouse()
    for layout in ("columnar", "object"):
        planner = SRPPlanner(warehouse, store_layout=layout)
        routes = _plan_day(planner)
        assert routes, "day workload planned nothing"
        assert audit_planner_state(planner, routes) == []
