"""Decommit (remove) support of the segment stores and crossing ledger.

The recovery path relies on one property above all: removing exactly
the segments a commit inserted returns a store to *bit-identical*
internal state — not merely behavioural equivalence, but equal index
structures — so a disturbed day leaves no residue the paper's MC metric
or later queries could observe.  The Hypothesis suite here round-trips
random commit/decommit interleavings against that definition for both
object-backed store backends.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.crossings import CrossingLedger
from repro.core.naive_store import NaiveSegmentStore
from repro.core.segments import Segment
from repro.core.slope_index import SlopeIndexedStore
from repro.core.store_base import EMPTY_STORE, StripStoreMap
from repro.exceptions import PlanningFailedError, SimulationError

STORES = [NaiveSegmentStore, SlopeIndexedStore]

#: slots that are not segment content and may drift across a round
#: trip: instrumentation counters and the last_end high-water mark
#: (deliberately stale-high after remove — see SegmentStore.last_end)
_NON_CONTENT = {"queries", "judged", "last_end"}


def state_of(store):
    """Every content-bearing slot of a store, for bit-identity checks."""
    return {
        name: getattr(store, name)
        for name in store.__slots__
        if name not in _NON_CONTENT
    }


@st.composite
def segment_strategy(draw, max_t=25, max_p=15, max_len=8):
    t0 = draw(st.integers(0, max_t))
    p0 = draw(st.integers(0, max_p))
    slope = draw(st.sampled_from([-1, 0, 1]))
    length = draw(st.integers(0, max_len))
    return Segment(t0, p0, t0 + length, p0 + slope * length if slope else p0)


@pytest.mark.parametrize("store_cls", STORES)
class TestRemoveBasics:
    def test_remove_only_instance(self, store_cls):
        store = store_cls()
        seg = Segment(2, 3, 6, 7)
        store.insert(seg)
        store.remove(seg)
        assert len(store) == 0
        assert list(store.iter_segments()) == []
        assert not store.occupied(3, 2)

    def test_remove_missing_raises(self, store_cls):
        store = store_cls()
        store.insert(Segment(0, 0, 4, 4))
        with pytest.raises(KeyError):
            store.remove(Segment(0, 0, 4, 0))

    def test_multiset_semantics(self, store_cls):
        """Duplicate values are legal; remove drops exactly one copy."""
        store = store_cls()
        seg = Segment(5, 5, 5, 5)
        store.insert(seg)
        store.insert(seg)
        store.remove(seg)
        assert len(store) == 1
        assert store.occupied(5, 5)
        store.remove(seg)
        assert len(store) == 0
        with pytest.raises(KeyError):
            store.remove(seg)

    def test_remove_restores_max_duration_answers(self, store_cls):
        """Dropping the longest segment must not leave stale pruning bounds."""
        store = store_cls()
        long = Segment(0, 0, 20, 0)
        short = Segment(30, 5, 32, 7)
        store.insert(long)
        store.insert(short)
        store.remove(long)
        # Only the short segment remains; a query far from it is free.
        assert store.earliest_conflict(Segment(10, 0, 12, 0)) is None
        assert store.earliest_conflict(Segment(30, 5, 30, 5)) is not None


@pytest.mark.parametrize("store_cls", STORES)
class TestRoundTripProperty:
    @settings(max_examples=120, deadline=None)
    @given(
        baseline=st.lists(segment_strategy(), max_size=10),
        extras=st.lists(segment_strategy(), min_size=1, max_size=10),
        order_seed=st.randoms(use_true_random=False),
    )
    def test_commit_decommit_round_trip(self, store_cls, baseline, extras, order_seed):
        """insert(extras) then remove(extras) is a perfect no-op.

        Removal order is shuffled independently of insertion order, and
        extras may duplicate baseline segments (the multiset case) —
        the store must still land on bit-identical content.
        """
        reference = store_cls()
        store = store_cls()
        for seg in baseline:
            reference.insert(seg)
            store.insert(seg)
        expected = state_of(reference)

        for seg in extras:
            store.insert(seg)
        removal = list(extras)
        order_seed.shuffle(removal)
        for seg in removal:
            store.remove(seg)

        assert state_of(store) == expected
        assert sorted(s.raw for s in store.iter_segments()) == sorted(
            s.raw for s in reference.iter_segments()
        )

    @settings(max_examples=60, deadline=None)
    @given(
        segments=st.lists(segment_strategy(), min_size=1, max_size=12),
        probe=segment_strategy(),
    )
    def test_round_trip_preserves_conflict_answers(self, store_cls, segments, probe):
        store = store_cls()
        for seg in segments:
            store.insert(seg)
        baseline_answer = store.earliest_block(probe)
        for seg in segments:
            store.insert(seg)
        for seg in segments:
            store.remove(seg)
        assert store.earliest_block(probe) == baseline_answer


class TestStripStoreMapRemove:
    def test_emptied_store_reverts_to_shared_empty(self):
        stores = StripStoreMap(4, NaiveSegmentStore)
        seg = Segment(0, 0, 3, 3)
        stores.materialize(2).insert(seg)
        assert stores[2] is not EMPTY_STORE
        stores.remove(2, seg)
        assert stores[2] is EMPTY_STORE

    def test_remove_from_untouched_strip_raises(self):
        stores = StripStoreMap(4, NaiveSegmentStore)
        with pytest.raises(KeyError):
            stores.remove(1, Segment(0, 0, 1, 1))


class TestCrossingLedgerRefcounts:
    def test_membership_follows_refcount(self):
        ledger = CrossingLedger(6, 6)
        ledger.add((1, 1), (1, 2), 5)
        assert ((1, 1), (1, 2), 5) in ledger
        # A second reference (a forced recovery commit overlapping an
        # existing claim) keeps the key committed until the last
        # reference is released.
        ledger.add((1, 1), (1, 2), 5)
        ledger.remove((1, 1), (1, 2), 5)
        assert ((1, 1), (1, 2), 5) in ledger
        ledger.remove((1, 1), (1, 2), 5)
        assert ((1, 1), (1, 2), 5) not in ledger

    def test_remove_missing_raises(self):
        ledger = CrossingLedger(6, 6)
        with pytest.raises(KeyError):
            ledger.remove((0, 0), (0, 1), 3)

    def test_round_trip_restores_key_set(self):
        ledger = CrossingLedger(8, 8)
        base = [((0, 0), (0, 1), 2), ((3, 3), (4, 3), 7)]
        extra = [((5, 5), (5, 6), 9), ((1, 2), (1, 1), 4)]
        for key in base:
            ledger.add_key(key)
        before = sorted(ledger.iter_keys())
        for key in extra:
            ledger.add_key(key)
        for key in reversed(extra):
            ledger.remove_key(key)
        assert sorted(ledger.iter_keys()) == before

    def test_prune_counts_dropped_keys(self):
        ledger = CrossingLedger(6, 6)
        ledger.add((2, 2), (2, 3), 10)
        assert ledger.prune(5) == 0
        assert ((2, 2), (2, 3), 10) in ledger
        assert ledger.prune(11) == 1
        assert len(ledger) == 0

    def test_clear_empties_ledger(self):
        ledger = CrossingLedger(6, 6)
        ledger.clear()
        assert len(ledger) == 0
        ledger.add((1, 1), (1, 2), 5)
        ledger.clear()
        assert len(ledger) == 0 and not ledger


class TestStructuredExceptions:
    def test_planning_failed_diagnostics(self):
        exc = PlanningFailedError(
            "no route", query_id=7, release_time=42, phase="fallback", expansions=99
        )
        diag = exc.diagnostics()
        assert diag["query_id"] == 7
        assert diag["release_time"] == 42
        assert diag["phase"] == "fallback"
        assert diag["expansions"] == 99
        text = str(exc)
        assert "no route" in text and "query_id=7" in text and "fallback" in text

    def test_simulation_error_diagnostics(self):
        exc = SimulationError("cascade stuck", query_id=3, release_time=8,
                              phase="recovery-cascade")
        diag = exc.diagnostics()
        assert diag == {"query_id": 3, "release_time": 8,
                        "phase": "recovery-cascade"}

    def test_plain_messages_stay_clean(self):
        assert str(PlanningFailedError("boom")) == "boom"
        assert str(SimulationError("bang")) == "bang"
