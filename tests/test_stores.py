"""Tests for the segment stores: naive (V-B), slope-indexed (V-D), columnar.

The central property: on any committed segment set, every store must
return exactly the same earliest-conflict answer as a brute-force scan,
because the slope index (in either layout) is a pure acceleration of
the naive store.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Query, SRPPlanner
from repro.core.columnar_store import ColumnarSegmentStore
from repro.core.intra_strip import free_flow_plan, plan_within_strip
from repro.core.naive_store import NaiveSegmentStore
from repro.core.segments import Segment, make_move, make_wait
from repro.core.slope_index import SlopeIndexedStore
from repro.geometry.collision import conflict_between
from tests.conftest import random_cells

STORES = [NaiveSegmentStore, SlopeIndexedStore, ColumnarSegmentStore]


@st.composite
def segment_strategy(draw, max_t=25, max_p=15, max_len=8):
    t0 = draw(st.integers(0, max_t))
    p0 = draw(st.integers(0, max_p))
    slope = draw(st.sampled_from([-1, 0, 1]))
    length = draw(st.integers(0, max_len))
    return Segment(t0, p0, t0 + length, p0 + slope * length if slope else p0)


def brute_earliest(query: Segment, committed):
    best = None
    for other in committed:
        c = conflict_between(query.raw, other.raw)
        if c is not None and (best is None or c.blocked_time < best):
            best = c.blocked_time
    return best


@pytest.mark.parametrize("store_cls", STORES)
class TestStoreBasics:
    def test_empty_store_is_clear(self, store_cls):
        store = store_cls()
        assert len(store) == 0
        assert store.earliest_conflict(Segment(0, 0, 5, 5)) is None
        assert not store.occupied(3, 3)

    def test_insert_and_len(self, store_cls):
        store = store_cls()
        store.insert(Segment(0, 0, 4, 4))
        store.insert(Segment(2, 7, 6, 7))
        assert len(store) == 2
        assert sorted(s.t0 for s in store.iter_segments()) == [0, 2]

    def test_point_segments_accepted(self, store_cls):
        store = store_cls()
        store.insert(Segment(3, 3, 3, 3))
        assert len(store) == 1
        assert store.occupied(3, 3)
        assert not store.occupied(3, 4)
        assert not store.occupied(2, 3)

    def test_detects_vertex_conflict(self, store_cls):
        store = store_cls()
        store.insert(Segment(0, 4, 6, 4))  # waits at p=4
        hit = store.earliest_conflict(make_move(0, 0, 8))
        assert hit is not None
        blocked, obstacle = hit
        assert blocked == 4
        assert obstacle == Segment(0, 4, 6, 4)

    def test_detects_swap_conflict(self, store_cls):
        store = store_cls()
        store.insert(make_move(0, 5, 0))  # opposing traffic
        hit = store.earliest_conflict(make_move(0, 0, 5))
        assert hit is not None and hit[0] == 3  # crossing at 2.5

    def test_same_slope_needs_same_line(self, store_cls):
        store = store_cls()
        store.insert(make_move(0, 1, 6))  # slope +1, intercept 1
        # Parallel on a different line: never conflicts.
        assert store.earliest_conflict(make_move(0, 0, 5)) is None
        # Same line (intercept 1), overlapping span: conflicts.
        assert store.earliest_conflict(make_move(2, 3, 8)) is not None

    def test_occupied_queries(self, store_cls):
        store = store_cls()
        store.insert(make_move(2, 1, 5))  # at p=3 when t=4
        assert store.occupied(3, 4)
        assert not store.occupied(3, 5)
        assert not store.occupied(4, 4)
        assert store.occupied(5, 6)  # endpoint

    def test_move_blocked(self, store_cls):
        store = store_cls()
        store.insert(make_move(0, 3, 2))  # 3 -> 2 over [0, 1]
        assert store.move_blocked(0, 2, 3)  # swap
        assert store.move_blocked(0, 1, 2)  # vertex at t=1, p=2
        assert not store.move_blocked(2, 1, 2)

    def test_prune_drops_finished(self, store_cls):
        store = store_cls()
        store.insert(Segment(0, 0, 3, 3))
        store.insert(Segment(5, 0, 9, 4))
        assert store.prune(4) == 1
        assert len(store) == 1
        assert next(iter(store.iter_segments())).t0 == 5

    def test_prune_keeps_active(self, store_cls):
        store = store_cls()
        store.insert(Segment(0, 0, 10, 10))
        assert store.prune(5) == 0
        assert len(store) == 1

    def test_clear(self, store_cls):
        store = store_cls()
        store.insert(Segment(0, 0, 3, 3))
        store.clear()
        assert len(store) == 0
        assert store.earliest_conflict(Segment(0, 0, 3, 3)) is None

    def test_instrumentation_counters(self, store_cls):
        store = store_cls()
        store.insert(Segment(0, 0, 5, 5))
        before = store.queries
        store.earliest_conflict(Segment(0, 5, 5, 0))
        assert store.queries == before + 1

    def test_clear_on_empty_store_stays_usable(self, store_cls):
        # clear() on an already emptied store must still reset the
        # last_end high-water mark and leave the store usable.
        store = store_cls()
        store.insert(make_move(0, 0, 3))
        store.prune(100)  # empties the store; last_end keeps its high-water
        store.clear()
        assert store.last_end == -1
        store.insert(make_move(5, 0, 3))
        assert len(store) == 1

    def test_effective_clear_resets_everything(self, store_cls):
        store = store_cls()
        store.insert(make_move(0, 0, 4))
        store.clear()
        assert len(store) == 0 and store.last_end == -1
        store.insert(make_move(2, 0, 2))
        assert len(store) == 1


@pytest.mark.parametrize("store_cls", STORES)
class TestLastEnd:
    @settings(max_examples=80, deadline=None)
    @given(
        segments=st.lists(segment_strategy(), min_size=1, max_size=10),
        origin=st.integers(0, 15),
        dest=st.integers(0, 15),
        offset=st.integers(1, 20),
    )
    def test_free_flow_plan_reproduces_search(
        self, store_cls, segments, origin, dest, offset
    ):
        """Past the high-water mark the greedy search degenerates to the
        single free-flow move — :func:`free_flow_plan` must rebuild that
        result bit-for-bit, expansions included (the inter-strip
        search's O(1) fast path)."""
        store = store_cls()
        for seg in segments:
            store.insert(seg)
        t = store.last_end + offset
        searched = plan_within_strip(store, t, origin, dest)
        built = free_flow_plan(t, origin, dest)
        assert searched is not None
        assert [s.raw for s in searched.segments] == [s.raw for s in built.segments]
        assert searched.start_time == built.start_time
        assert searched.arrival_time == built.arrival_time
        assert searched.expansions == built.expansions

    @settings(max_examples=80, deadline=None)
    @given(segments=st.lists(segment_strategy(), min_size=1, max_size=10))
    def test_last_end_is_an_upper_bound(self, store_cls, segments):
        """``last_end`` dominates every live end time, exactly after
        pure inserts, and monotonically (possibly stale-high, never
        stale-low) across removals."""
        store = store_cls()
        for seg in segments:
            store.insert(seg)
        true_max = max(s.t1 for s in segments)
        assert store.last_end == true_max
        for seg in segments[: len(segments) // 2]:
            store.remove(seg)
        live = [s.t1 for s in store.iter_segments()]
        assert store.last_end >= max(live, default=-1)
        assert store.last_end == true_max  # monotone: removals never lower it
        store.clear()
        assert store.last_end == -1


@pytest.mark.parametrize("store_cls", STORES)
class TestAgainstBruteForce:
    @settings(max_examples=250, deadline=None)
    @given(st.lists(segment_strategy(), max_size=14), segment_strategy())
    def test_earliest_conflict_time_matches(self, store_cls, committed, query):
        store = store_cls()
        for s in committed:
            store.insert(s)
        expected = brute_earliest(query, committed)
        hit = store.earliest_conflict(query)
        assert (hit[0] if hit else None) == expected

    @settings(max_examples=250, deadline=None)
    @given(st.lists(segment_strategy(), max_size=12), st.integers(0, 15), st.integers(0, 30))
    def test_occupied_matches_positions(self, store_cls, committed, pos, t):
        store = store_cls()
        for s in committed:
            store.insert(s)
        expected = any(
            s.t0 <= t <= s.t1 and s.position_at(t) == pos for s in committed
        )
        assert store.occupied(pos, t) == expected


class TestStoreEquivalence:
    """Naive and indexed stores answer identically on the same content."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(segment_strategy(), max_size=16), segment_strategy())
    def test_same_blocked_time(self, committed, query):
        naive, indexed = NaiveSegmentStore(), SlopeIndexedStore()
        for s in committed:
            naive.insert(s)
            indexed.insert(s)
        a = naive.earliest_conflict(query)
        b = indexed.earliest_conflict(query)
        assert (a[0] if a else None) == (b[0] if b else None)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(segment_strategy(), max_size=16), st.integers(0, 30))
    def test_same_prune_counts(self, committed, before):
        naive, indexed = NaiveSegmentStore(), SlopeIndexedStore()
        for s in committed:
            naive.insert(s)
            indexed.insert(s)
        assert naive.prune(before) == indexed.prune(before)
        assert len(naive) == len(indexed)


class TestSlopeIndexStructure:
    def test_buckets_by_intercept(self):
        store = SlopeIndexedStore()
        store.insert(make_move(0, 0, 5))  # slope +1, intercept 0
        store.insert(make_move(2, 2, 7))  # slope +1, intercept 0 (same line)
        store.insert(make_move(0, 1, 6))  # slope +1, intercept 1
        assert len(store._by_intercept[1]) == 2
        assert len(store._by_intercept[1][0]) == 2

    def test_cross_slope_judged_linearly(self):
        store = SlopeIndexedStore()
        store.insert(make_move(0, 9, 0))
        before = store.judged
        store.earliest_conflict(make_move(0, 0, 9))
        assert store.judged == before + 1


class TestMaxDurationPruneRegression:
    """``prune`` must shrink the candidate look-back windows again."""

    def test_naive_store_shrinks_window(self):
        store = NaiveSegmentStore()
        store.insert(make_wait(0, 5, 30))  # duration 30
        store.insert(make_move(40, 0, 3))
        assert store._max_duration == 30
        store.prune(35)  # the long wait is history
        assert store._max_duration == 3

    def test_slope_store_shrinks_per_slope_windows(self):
        store = SlopeIndexedStore()
        store.insert(make_wait(0, 5, 30))  # slope 0, duration 30
        store.insert(make_move(40, 0, 6))  # slope +1, duration 6
        store.insert(make_move(41, 9, 4))  # slope -1, duration 5
        assert store._max_durations[0] == 30
        store.prune(35)
        assert store._max_durations[0] == 0
        assert store._max_durations[1] == 6
        assert store._max_durations[-1] == 5

    def test_slope_store_windows_stay_correct_after_prune(self):
        store = SlopeIndexedStore()
        store.insert(make_wait(0, 5, 30))
        store.insert(make_wait(50, 5, 4))
        store.prune(40)
        # The surviving wait must still be found by a query overlapping
        # its span even though the window shrank.
        probe = Segment(53, 5, 53, 5)
        hit = store.earliest_conflict(probe)
        assert hit is not None and hit[0] == 53


class TestPlannerIntegration:
    def test_unknown_store_rejected(self, tiny_warehouse):
        for name in ("btree", "bucket"):
            with pytest.raises(ValueError):
                SRPPlanner(tiny_warehouse, store=name)

    def test_backends_agree_on_totals(self, mid_warehouse):
        cells = random_cells(mid_warehouse, 40, seed=92)
        totals = {}
        for store in ("slope", "naive"):
            planner = SRPPlanner(mid_warehouse, store=store)
            totals[store] = sum(
                planner.plan(Query(cells[k], cells[k + 1], 9 * k, query_id=k)).duration
                for k in range(0, 40, 2)
            )
        assert totals["slope"] == totals["naive"]
