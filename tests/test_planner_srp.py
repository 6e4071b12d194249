"""End-to-end tests for the SRP planner."""

import pytest

from repro import Query, SRPPlanner, Warehouse
from repro.analysis import assert_collision_free, find_conflicts
from repro.exceptions import InvalidQueryError, PlanningFailedError
from repro.types import manhattan
from tests.conftest import random_cells


class TestBasics:
    def test_empty_warehouse_optimal(self, mid_warehouse):
        planner = SRPPlanner(mid_warehouse)
        route = planner.plan(Query((0, 0), (39, 29)))
        assert route.duration == manhattan((0, 0), (39, 29))

    def test_trivial_query(self, mid_warehouse):
        planner = SRPPlanner(mid_warehouse)
        route = planner.plan(Query((0, 0), (0, 0), 5))
        assert route.grids == [(0, 0)] and route.start_time == 5

    def test_out_of_bounds_rejected(self, mid_warehouse):
        planner = SRPPlanner(mid_warehouse)
        with pytest.raises(InvalidQueryError):
            planner.plan(Query((0, 0), (99, 99)))

    def test_walled_destination_fails(self):
        wh = Warehouse.from_ascii("...\n###\n...")
        planner = SRPPlanner(wh)
        with pytest.raises(PlanningFailedError):
            planner.plan(Query((0, 0), (2, 0)))
        assert planner.timers.failures == 1

    def test_rack_endpoints(self, tiny_warehouse):
        planner = SRPPlanner(tiny_warehouse)
        out = planner.plan(Query((1, 2), (0, 0), 0))
        back = planner.plan(Query((0, 0), (2, 5), 20))
        assert out.origin == (1, 2) and back.destination == (2, 5)
        assert_collision_free([out, back])

    def test_timers_and_stats(self, mid_warehouse):
        planner = SRPPlanner(mid_warehouse)
        planner.plan(Query((0, 0), (20, 20)))
        assert planner.timers.queries == 1
        assert planner.timers.total > 0
        assert planner.stats.queries == 1
        assert planner.stats.total_time >= planner.stats.intra_time

    def test_reset(self, mid_warehouse):
        planner = SRPPlanner(mid_warehouse)
        planner.plan(Query((0, 0), (20, 20)))
        planner.reset()
        assert planner.n_segments == 0
        assert planner.timers.queries == 0
        assert not planner.crossings


#: every segment-store backend
BACKENDS = ["columnar", "slope", "naive"]


class TestCollisionFreedom:
    @pytest.mark.parametrize(
        "store", BACKENDS, ids=["slope-columnar", "slope-object", "naive"]
    )
    def test_random_stream_collision_free(self, mid_warehouse, store):
        planner = SRPPlanner(mid_warehouse, store=store)
        cells = random_cells(mid_warehouse, 120, seed=7)
        routes = []
        release = 0
        for k in range(0, 120, 2):
            release += k % 13
            routes.append(planner.plan(Query(cells[k], cells[k + 1], release, query_id=k)))
        assert find_conflicts(routes) == []

    def test_simultaneous_release_burst(self, mid_warehouse):
        planner = SRPPlanner(mid_warehouse)
        cells = random_cells(mid_warehouse, 40, seed=11, include_racks=False)
        routes = [
            planner.plan(Query(cells[k], cells[k + 1], 0, query_id=k))
            for k in range(0, 40, 2)
        ]
        assert find_conflicts(routes) == []

    def test_hot_destination_contention(self, mid_warehouse):
        """Many robots target cells around one picker simultaneously."""
        planner = SRPPlanner(mid_warehouse)
        target = (39, 1)
        cells = random_cells(mid_warehouse, 8, seed=3, include_racks=False)
        routes = [
            planner.plan(Query(cell, target, 2 * k, query_id=k))
            for k, cell in enumerate(cells)
            if cell != target
        ]
        assert find_conflicts(routes) == []

    def test_naive_and_indexed_agree_on_feasibility(self, mid_warehouse):
        """Both store backends must produce conflict-free streams of the
        same cost profile (identical plans are not required)."""
        cells = random_cells(mid_warehouse, 60, seed=13)
        durations = []
        for store in BACKENDS:
            planner = SRPPlanner(mid_warehouse, store=store)
            total = 0
            for k in range(0, 60, 2):
                route = planner.plan(Query(cells[k], cells[k + 1], 5 * k, query_id=k))
                total += route.duration
            durations.append(total)
        assert len(set(durations)) == 1


class TestPruning:
    def test_prune_preserves_collision_freedom(self, mid_warehouse):
        planner = SRPPlanner(mid_warehouse)
        cells = random_cells(mid_warehouse, 100, seed=29)
        routes = []
        for k in range(0, 100, 2):
            release = 15 * k
            routes.append(planner.plan(Query(cells[k], cells[k + 1], release, query_id=k)))
            planner.prune(release)
        assert find_conflicts(routes) == []

    def test_prune_shrinks_state(self, mid_warehouse):
        planner = SRPPlanner(mid_warehouse)
        cells = random_cells(mid_warehouse, 40, seed=31)
        for k in range(0, 40, 2):
            planner.plan(Query(cells[k], cells[k + 1], k))
        before = planner.n_segments
        planner.prune(10_000)
        assert planner.n_segments == 0 < before
        assert not planner.crossings


class TestFallback:
    def test_fallback_route_respected_by_later_queries(self):
        wh = Warehouse.from_ascii("...\n...\n...")
        planner = SRPPlanner(wh)
        a = planner.plan(Query((0, 1), (2, 1), 0))
        b = planner.plan(Query((2, 1), (0, 1), 0))  # forces the fallback
        c = planner.plan(Query((0, 0), (2, 2), 0))
        assert planner.stats.fallbacks >= 1
        assert_collision_free([a, b, c])

    def test_fallback_rate_low_in_light_traffic(self, mid_warehouse):
        planner = SRPPlanner(mid_warehouse)
        cells = random_cells(mid_warehouse, 100, seed=41)
        for k in range(0, 100, 2):
            planner.plan(Query(cells[k], cells[k + 1], 40 * k, query_id=k))
        assert planner.stats.fallbacks <= 2


class TestStartDelays:
    def test_origin_occupied_delays_start(self):
        wh = Warehouse.from_ascii("....\n....")
        planner = SRPPlanner(wh)
        # A route that sweeps through (0,2) at t=2.
        planner.plan(Query((0, 0), (0, 3), 0))
        route = planner.plan(Query((0, 2), (1, 2), 2))
        assert route.start_time >= 2
        assert planner.stats.start_delays >= 0  # may sidestep instead
        conflicts = find_conflicts(
            [route, planner.plan(Query((1, 0), (1, 3), 0))]
        )
        assert conflicts == []
