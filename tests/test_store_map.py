"""Tests for the lazy per-strip store map and the shared empty store."""

import pytest

from repro.core.naive_store import NaiveSegmentStore
from repro.core.segments import Segment, make_move
from repro.core.slope_index import SlopeIndexedStore
from repro.core.store_base import EMPTY_STORE, StripStoreMap


class TestEmptyStore:
    def test_reads_are_trivial(self):
        assert EMPTY_STORE.earliest_conflict(Segment(0, 0, 5, 5)) is None
        assert EMPTY_STORE.earliest_block(Segment(0, 0, 5, 5)) is None
        assert not EMPTY_STORE.occupied(0, 0)
        assert not EMPTY_STORE.move_blocked(0, 0, 1)
        assert len(EMPTY_STORE) == 0
        assert list(EMPTY_STORE.iter_segments()) == []
        assert EMPTY_STORE.prune(100) == 0

    def test_writes_rejected(self):
        with pytest.raises(TypeError):
            EMPTY_STORE.insert(Segment(0, 0, 1, 1))


class TestStripStoreMap:
    def test_reads_share_empty_store(self):
        stores = StripStoreMap(5, SlopeIndexedStore)
        assert stores[0] is EMPTY_STORE
        assert stores[4] is EMPTY_STORE
        assert stores.total_segments() == 0
        assert list(stores) == []

    def test_materialize_creates_once(self):
        stores = StripStoreMap(5, SlopeIndexedStore)
        a = stores.materialize(2)
        b = stores.materialize(2)
        assert a is b
        assert stores[2] is a
        assert isinstance(a, SlopeIndexedStore)

    def test_materialize_out_of_range(self):
        stores = StripStoreMap(3, NaiveSegmentStore)
        with pytest.raises(IndexError):
            stores.materialize(3)
        with pytest.raises(IndexError):
            stores.materialize(-1)

    def test_total_segments(self):
        stores = StripStoreMap(4, NaiveSegmentStore)
        stores.materialize(0).insert(make_move(0, 0, 3))
        stores.materialize(2).insert(make_move(5, 1, 4))
        stores.materialize(2).insert(make_move(9, 4, 1))
        assert stores.total_segments() == 3

    def test_prune_drops_empty_stores(self):
        stores = StripStoreMap(4, NaiveSegmentStore)
        stores.materialize(1).insert(make_move(0, 0, 3))
        stores.materialize(2).insert(make_move(50, 0, 3))
        assert stores.prune(20) == 1
        # Strip 1 emptied out and was deallocated.
        assert stores[1] is EMPTY_STORE
        assert stores[2] is not EMPTY_STORE

    def test_clear(self):
        stores = StripStoreMap(4, NaiveSegmentStore)
        stores.materialize(1).insert(make_move(0, 0, 3))
        stores.clear()
        assert stores.total_segments() == 0
        assert stores[1] is EMPTY_STORE

    def test_len_is_strip_count(self):
        assert len(StripStoreMap(7, NaiveSegmentStore)) == 7

    def test_iteration_covers_active_only(self):
        stores = StripStoreMap(6, NaiveSegmentStore)
        stores.materialize(3).insert(make_move(0, 0, 2))
        stores.materialize(5)
        assert len(list(stores)) == 2
        assert len(dict(stores.active_items())) == 2

    def test_counters_outlive_dropped_stores(self):
        stores = StripStoreMap(4, NaiveSegmentStore)
        early, late = make_move(0, 0, 3), make_move(50, 0, 3)
        stores.materialize(1).insert(early)
        stores.materialize(2).insert(late)
        assert stores[1].earliest_conflict(make_move(0, 3, 0)) is not None
        assert stores[2].earliest_conflict(make_move(50, 3, 0)) is not None
        totals = (stores.queries, stores.judged)
        assert totals == (2, 2)
        stores.remove(1, early)  # empties strip 1 by decommit
        assert stores[1] is EMPTY_STORE
        assert (stores.queries, stores.judged) == totals
        assert stores.prune(100) == 1  # empties strip 2 by prune
        assert stores[2] is EMPTY_STORE
        assert (stores.queries, stores.judged) == totals
        stores.clear()
        assert (stores.queries, stores.judged) == (0, 0)
