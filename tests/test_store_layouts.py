"""Layout-equivalence suite: columnar vs. object-backed stores.

The columnar store (``repro.core.columnar_store``) re-implements the
slope-indexed store over flat integer arrays.  Its contract is *bit
identity*: every query answer and every end-to-end route must match the
object-backed implementation exactly.  These tests drive both layouts
through the same randomised commit/decommit/prune/query interleavings
and compare everything observable.

``band_clear`` is the one deliberate exception: the object layout has
no index and always declines, so its answers are not compared.  Each
layout's answer is instead checked inline for soundness against brute
force, and so is the ``last_end`` high-water mark after every op.
"""

import operator

import pytest
from hypothesis import given, settings, strategies as st

from repro import Query, SRPPlanner, Warehouse
from repro.analysis.validate import audit_planner_state
from repro.core.columnar_store import BAND_WIDTH, ColumnarSegmentStore
from repro.core.segments import Segment
from repro.core.slope_index import SlopeIndexedStore
from repro.core.store_base import _band_time_interval
from repro.exceptions import InvalidQueryError, PlanningFailedError

# ---------------------------------------------------------------------------
# store-level op interleavings
# ---------------------------------------------------------------------------


@st.composite
def segment_strategy(draw, max_t=30, max_p=12, max_len=8):
    t0 = draw(st.integers(0, max_t))
    p0 = draw(st.integers(0, max_p))
    slope = draw(st.sampled_from([-1, 0, 1]))
    length = draw(st.integers(0, max_len))
    return Segment(t0, p0, t0 + length, p0 + slope * length if slope else p0)


def _blocks_band(segment: Segment, lo: int, hi: int, t0: int, t1: int) -> bool:
    """Brute force: is ``segment`` inside ``[lo, hi]`` during ``[t0, t1]``?"""
    interval = _band_time_interval(segment, lo, hi)
    return interval is not None and interval[0] <= t1 and interval[1] >= t0


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
        _band_probes(max_p, spans),
    )


def _band_probes(max_p, spans):
    """``band_clear`` probes: a position band up to 6 cells wide, a span."""
    return st.tuples(
        st.just("band_clear"),
        st.tuples(st.integers(0, max_p), st.integers(0, 6)),
        spans,
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

    The log records every query answer, the store size after every op
    and the final segment multiset.  ``band_clear`` answers and
    ``last_end`` are asserted inline instead (see the module doc).
    """
    log = []
    live = []
    for kind, a, b in ops:
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
        else:  # band_clear: True must be a proof that the region is empty
            lo, width = a
            t0, span = b
            if store.band_clear(lo, lo + width, t0, t0 + span):
                assert not any(
                    _blocks_band(s, lo, lo + width, t0, t0 + span) for s in live
                )
        # The free-flow fast paths skip the store entirely past last_end,
        # so it must stay an upper bound on every stored end time.
        assert store.last_end >= max((s.t1 for s in live), default=-1)
        log.append(("len", len(store)))
    log.append(
        ("segments", sorted((s.t0, s.p0, s.t1, s.p1) for s in store.iter_segments()))
    )
    log.append(("last_end", store.last_end))
    return log


@settings(max_examples=200, deadline=None)
@given(ops=_STORE_OPS)
def test_columnar_matches_slope_index(ops):
    assert _drive(ColumnarSegmentStore(), ops) == _drive(SlopeIndexedStore(), ops)


_MUTATIONS = st.one_of(
    _WIDE_INSERTS,
    st.tuples(st.just("remove"), st.integers(0, 10 ** 6), st.just(0)),
    st.tuples(st.just("prune"), st.integers(0, _WIDE_T + 24), st.just(0)),
)


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            _MUTATIONS,
            _band_probes(
                _WIDE_P, st.tuples(st.integers(0, _WIDE_T + 48), st.integers(0, 24))
            ),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_band_clear_matches_brute_force(ops):
    """``band_clear`` certifies a region empty only when brute force agrees.

    The inter-strip fast paths return a plan without a search whenever
    it answers ``True``, so this is the soundness proof those paths rest
    on.  Wide segment soups (four bands, long holds) are probed after
    interleaved inserts, removes and prunes; ``_drive`` asserts every
    answer against the live multiset.
    """
    _drive(ColumnarSegmentStore(), ops)


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
WORLD = """
........
..##.##.
..##.##.
........
..##.##.
........
"""


def _warehouse() -> Warehouse:
    return Warehouse.from_ascii(WORLD)


_FREE = _warehouse().free_cells()

#: one op per element: plan a query, commit a blockage, prune, or
#: recover an executing route via replan_from (decommit + hold + replan)
_OP = st.one_of(
    st.tuples(
        st.just("plan"),
        st.integers(0, len(_FREE) - 1),
        st.integers(0, len(_FREE) - 1),
        st.integers(0, 6),
    ),
    st.tuples(st.just("blockage"), st.integers(0, len(_FREE) - 1), st.integers(1, 6)),
    st.tuples(st.just("prune"), st.just(0), st.just(0)),
    st.tuples(st.just("replan"), st.integers(0, 31), st.integers(0, 31)),
)


def _apply_ops(planner, ops):
    """Drive one planner through an op sequence; return every outcome.

    Replan targets are derived from the planner's *own* committed
    routes, so if two planners ever diverged the derived op streams (and
    hence the outcome logs) would too.
    """
    outcomes = []
    routes = {}
    now = 0
    qid = 0
    pruned_to = 0
    for op in ops:
        kind = op[0]
        if kind == "plan":
            _, oi, di, dt = op
            now += dt
            origin = _FREE[oi]
            destination = _FREE[di]
            if origin == destination:
                continue
            query = Query(origin, destination, now, query_id=qid)
            qid += 1
            try:
                route = planner.plan(query)
            except PlanningFailedError:
                outcomes.append(("fail", query.query_id))
                continue
            routes[query.query_id] = route
            outcomes.append(("route", query.query_id, route.start_time, tuple(route.grids)))
        elif kind == "blockage":
            _, ci, duration = op
            cell = _FREE[ci]
            planner.commit_blockage(cell, now, now + duration)
            outcomes.append(("blockage", cell, now, now + duration))
        elif kind == "prune":
            planner.prune(now)
            pruned_to = max(pruned_to, now)
        else:  # replan: stall some executing route mid-flight
            _, pick, frac = op
            # Only routes no prune has touched are recoverable (the
            # simulation never replans history it already discarded).
            active = [
                (q, r)
                for q, r in sorted(routes.items())
                if r.finish_time > r.start_time + 1 and r.start_time >= pruned_to
            ]
            if not active:
                continue
            query_id, route = active[pick % len(active)]
            stall_t = route.start_time + 1 + frac % (route.finish_time - route.start_time - 1)
            cell = route.position_at(stall_t)
            try:
                revised = planner.replan_from(query_id, cell, stall_t)
            except PlanningFailedError:
                outcomes.append(("replan-fail", query_id, stall_t))
                continue
            except InvalidQueryError:
                # e.g. a second stall scheduled before an earlier one on
                # the same route — rejected deterministically either way
                outcomes.append(("replan-invalid", query_id, stall_t))
                continue
            routes[query_id] = revised
            outcomes.append(
                ("replan", query_id, revised.start_time, tuple(revised.grids))
            )
    return outcomes



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
