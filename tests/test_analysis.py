"""Tests for the validator oracle, memory metering and reporting."""

import numpy as np
import pytest

from repro.analysis import (
    assert_collision_free,
    deep_sizeof,
    find_conflicts,
    find_conflicts_pairwise,
    format_series,
    format_table,
)
from repro.exceptions import CollisionError
from repro.types import Route


class TestValidator:
    def test_vertex_conflict_found(self):
        a = Route(0, [(0, 0), (0, 1)])
        b = Route(0, [(0, 2), (0, 1)])
        conflicts = find_conflicts([a, b])
        assert len(conflicts) == 1
        c = conflicts[0]
        assert c.kind == "vertex" and c.time == 1 and c.grid == (0, 1)
        assert (c.route_a, c.route_b) == (0, 1)

    def test_swap_conflict_found(self):
        a = Route(0, [(0, 0), (0, 1)])
        b = Route(0, [(0, 1), (0, 0)])
        conflicts = find_conflicts([a, b])
        assert any(c.kind == "swap" for c in conflicts)

    def test_clean_routes(self):
        a = Route(0, [(0, 0), (0, 1)])
        b = Route(0, [(2, 0), (2, 1)])
        assert find_conflicts([a, b]) == []

    def test_time_separation_is_clean(self):
        a = Route(0, [(0, 0), (0, 1)])
        b = Route(5, [(0, 0), (0, 1)])
        assert find_conflicts([a, b]) == []

    def test_follow_is_legal(self):
        a = Route(0, [(0, 0), (0, 1), (0, 2)])
        b = Route(1, [(0, 0), (0, 1)])
        assert find_conflicts([a, b]) == []

    def test_stop_at_first(self):
        a = Route(0, [(0, 0), (0, 1), (0, 2)])
        b = Route(0, [(0, 0), (0, 1), (0, 2)])
        assert len(find_conflicts([a, b], stop_at_first=True)) == 1

    def test_pairwise_wrapper(self):
        a = Route(0, [(0, 0), (0, 1)])
        b = Route(0, [(0, 1), (0, 0)])
        assert find_conflicts_pairwise(a, b)

    def test_assert_raises(self):
        a = Route(0, [(0, 0), (0, 1)])
        b = Route(0, [(0, 2), (0, 1)])
        with pytest.raises(CollisionError):
            assert_collision_free([a, b])
        assert_collision_free([a])

    def test_three_routes_attribution(self):
        a = Route(0, [(0, 0), (0, 0)])
        b = Route(0, [(1, 1), (1, 2)])
        c = Route(0, [(0, 1), (0, 0)])  # hits a at t=1
        conflicts = find_conflicts([a, b, c])
        assert len(conflicts) == 1
        assert {conflicts[0].route_a, conflicts[0].route_b} == {0, 2}


class TestDeepSizeof:
    def test_monotone_in_content(self):
        assert deep_sizeof([1, 2, 3]) < deep_sizeof(list(range(1000)))

    def test_shared_objects_counted_once(self):
        shared = list(range(100))
        assert deep_sizeof([shared, shared]) < 2 * deep_sizeof(shared)

    def test_numpy_counts_buffer(self):
        small = np.zeros(10, dtype=np.int64)
        large = np.zeros(10_000, dtype=np.int64)
        assert deep_sizeof(large) - deep_sizeof(small) >= 8 * 9_000

    def test_dict_contents(self):
        assert deep_sizeof({"k": "v" * 1000}) > 1000

    def test_slotted_objects(self):
        from repro.core.segments import Segment

        seg = Segment(0, 0, 5, 5)
        assert deep_sizeof(seg) > 0

    def test_inherited_slots_counted(self):
        from repro.core.slope_index import SlopeIndexedStore
        from repro.core.segments import make_move

        # ``queries``/``last_end``/... live in the *base* class's
        # __slots__; a walker that only reads the leaf class's slots
        # misses them (and, worse, the band index of the columnar
        # store).
        store = SlopeIndexedStore()
        empty = deep_sizeof(store)
        for t in range(200):
            store.insert(make_move(3 * t, 0, 9))
        assert deep_sizeof(store) - empty > 200 * 8

    def test_columnar_buffers_counted(self):
        from repro.core.columnar_store import ColumnarSegmentStore
        from repro.core.segments import make_move

        store = ColumnarSegmentStore()
        empty = deep_sizeof(store)
        for t in range(500):
            store.insert(make_move(3 * t, 0, 9))
        # one ten-field band entry per segment -> well over 7 * 8 bytes
        assert deep_sizeof(store) - empty >= 500 * 7 * 8

    def test_memoryview_follows_exporter(self):
        from array import array

        buf = array("q", range(10_000))
        assert deep_sizeof(memoryview(buf)) >= 8 * 10_000

    def test_planner_state_grows_with_traffic(self, mid_warehouse):
        from repro import Query, SRPPlanner
        from tests.conftest import random_cells

        planner = SRPPlanner(mid_warehouse)
        empty = deep_sizeof(planner.planning_state())
        cells = random_cells(mid_warehouse, 40, seed=8)
        for k in range(0, 40, 2):
            planner.plan(Query(cells[k], cells[k + 1], 5 * k))
        assert deep_sizeof(planner.planning_state()) > empty


class TestReporting:
    def test_format_table_alignment(self):
        out = format_table(["name", "x"], [["a", 1], ["bb", 22]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "|" in lines[1]
        assert len(lines) == 5

    def test_format_table_floats(self):
        out = format_table(["v"], [[0.123456], [1.5], [3.0e-6]])
        assert "0.123" in out
        assert "3.00e-06" in out

    def test_format_series(self):
        out = format_series("tc", [0.1, 0.2], [1.5, 2.5], "progress", "seconds")
        assert "tc" in out and "->" in out
        assert len(out.splitlines()) == 3


class TestRouteLegality:
    def test_rack_traversal_flagged(self, tiny_warehouse):
        from repro.analysis import find_illegal_cells
        from repro.types import Route

        bad = Route(0, [(1, 1), (1, 2), (1, 3)])  # (1,2) is a rack
        violations = find_illegal_cells([bad], tiny_warehouse)
        assert len(violations) == 1
        assert violations[0].kind == "rack" and violations[0].grid == (1, 2)

    def test_rack_endpoints_allowed(self, tiny_warehouse):
        from repro.analysis import find_illegal_cells
        from repro.types import Route

        ok = Route(0, [(1, 2), (1, 1), (2, 1), (2, 2)])  # rack -> rack
        assert find_illegal_cells([ok], tiny_warehouse) == []

    def test_assert_routes_legal(self, tiny_warehouse):
        from repro.analysis import assert_routes_legal
        from repro.exceptions import CollisionError
        from repro.types import Route
        import pytest

        assert_routes_legal([Route(0, [(0, 0), (0, 1)])], tiny_warehouse)
        with pytest.raises(CollisionError):
            assert_routes_legal([Route(0, [(0, 0), (4, 4)])], tiny_warehouse)
        with pytest.raises(CollisionError):
            assert_routes_legal(
                [Route(0, [(1, 1), (1, 2), (1, 3)])], tiny_warehouse
            )
