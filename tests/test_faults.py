"""Fault injection and decommit/replan recovery, end to end.

The contract under test (docs/robustness.md):

* a seeded :class:`FaultPlan` disturbs a day reproducibly;
* every recovery keeps the executed day collision-free (ground-truth
  validator) and the planner's stores exactly consistent with the
  surviving routes (state audit);
* an *empty* fault plan leaves the simulation bit-identical to a run
  with fault injection disabled entirely.
"""

import pytest

from repro.analysis import assert_collision_free, audit_planner_state
from repro.baselines import make_baseline
from repro.core.planner import SRPPlanner
from repro.exceptions import InvalidQueryError, SimulationError
from repro.simulation import (
    AisleClosureFault,
    BlockageFault,
    FaultPlan,
    Simulation,
    SlowdownFault,
    StallFault,
    run_day,
)
from repro.types import Query
from repro.warehouse import TaskTraceSpec, generate_tasks, w1


def _routes_snapshot(sim: Simulation):
    return {q: (r.start_time, tuple(r.grids)) for q, r in sim._routes.items()}


class TestFaultPlan:
    def test_generate_is_deterministic(self, small_warehouse):
        kwargs = dict(n_robots=6, day_length=300, n_stalls=5, n_blockages=4, seed=9)
        a = FaultPlan.generate(small_warehouse, **kwargs)
        b = FaultPlan.generate(small_warehouse, **kwargs)
        assert list(a) == list(b)
        c = FaultPlan.generate(small_warehouse, **{**kwargs, "seed": 10})
        assert list(a) != list(c)

    def test_iteration_is_time_ordered(self, small_warehouse):
        plan = FaultPlan.generate(
            small_warehouse, n_robots=6, day_length=300, n_stalls=8, n_blockages=8,
            seed=1,
        )
        times = [f.time for f in plan]
        assert times == sorted(times)
        assert len(plan) == 16 and bool(plan)

    def test_blockages_target_free_cells(self, small_warehouse):
        plan = FaultPlan.generate(
            small_warehouse, n_robots=6, day_length=300, n_blockages=12, seed=4
        )
        assert all(not small_warehouse.is_rack(f.cell) for f in plan.blockages)

    def test_durations_validated(self):
        with pytest.raises(SimulationError) as exc:
            StallFault(time=5, robot_id=0, duration=0)
        assert exc.value.phase == "fault-injection"
        with pytest.raises(SimulationError):
            BlockageFault(time=5, cell=(1, 1), duration=-2)

    def test_empty_plan_is_falsy(self):
        plan = FaultPlan.empty()
        assert not plan and len(plan) == 0 and list(plan) == []

    def test_generate_with_all_kinds_is_deterministic(self, small_warehouse):
        kwargs = dict(
            n_robots=6, day_length=300, n_stalls=5, n_blockages=4,
            n_slowdowns=3, n_closures=2, seed=9,
        )
        a = FaultPlan.generate(small_warehouse, **kwargs)
        b = FaultPlan.generate(small_warehouse, **kwargs)
        assert list(a) == list(b)
        assert len(a.slowdowns) == 3 and len(a.closures) == 2

    def test_new_kinds_do_not_disturb_earlier_draws(self, small_warehouse):
        """Stalls and blockages are drawn first, so a plan adding
        slowdowns/closures keeps them bit-identical to the old draw."""
        old = FaultPlan.generate(
            small_warehouse, n_robots=6, day_length=300, n_stalls=5,
            n_blockages=4, seed=9,
        )
        new = FaultPlan.generate(
            small_warehouse, n_robots=6, day_length=300, n_stalls=5,
            n_blockages=4, n_slowdowns=3, n_closures=2, seed=9,
        )
        assert new.stalls == old.stalls
        assert new.blockages == old.blockages

    def test_closures_are_contiguous_aisle_runs(self, small_warehouse):
        plan = FaultPlan.generate(
            small_warehouse, n_robots=6, day_length=300, n_closures=6, seed=2
        )
        for closure in plan.closures:
            assert all(not small_warehouse.is_rack(c) for c in closure.cells)
            # __post_init__ enforces collinearity/contiguity; spot-check
            # the span really is a unit-step run.
            cells = sorted(closure.cells)
            steps = {
                (b[0] - a[0], b[1] - a[1]) for a, b in zip(cells, cells[1:])
            }
            assert steps <= {(0, 1), (1, 0)}


class TestRichFaultValidation:
    def test_slowdown_rejects_bad_factor_and_duration(self):
        with pytest.raises(SimulationError) as exc:
            SlowdownFault(time=5, robot_id=0, factor=1, duration=4)
        assert exc.value.phase == "fault-injection"
        with pytest.raises(SimulationError):
            SlowdownFault(time=5, robot_id=0, factor=2, duration=0)

    def test_closure_rejects_degenerate_spans(self):
        with pytest.raises(SimulationError):
            AisleClosureFault(time=5, cells=(), duration=4)
        with pytest.raises(SimulationError) as exc:
            AisleClosureFault(time=5, cells=((0, 0), (1, 1)), duration=4)
        assert "collinear" in str(exc.value)
        with pytest.raises(SimulationError) as exc:
            AisleClosureFault(time=5, cells=((0, 0), (0, 2)), duration=4)
        assert "contiguous" in str(exc.value)
        AisleClosureFault(time=5, cells=((0, 2), (0, 0), (0, 1)), duration=4)

    def test_overlapping_stall_and_slowdown_on_one_robot_rejected(self):
        plan = FaultPlan(
            stalls=[StallFault(time=10, robot_id=3, duration=5)],
            slowdowns=[SlowdownFault(time=12, robot_id=3, factor=2, duration=4)],
        )
        with pytest.raises(SimulationError) as exc:
            plan.validate()
        assert exc.value.phase == "fault-validation"
        assert "robot 3" in str(exc.value)

    def test_overlapping_slowdowns_on_one_robot_rejected(self):
        plan = FaultPlan(
            slowdowns=[
                SlowdownFault(time=10, robot_id=1, factor=2, duration=6),
                SlowdownFault(time=14, robot_id=1, factor=3, duration=6),
            ],
        )
        with pytest.raises(SimulationError):
            plan.validate()

    def test_overlapping_closure_and_blockage_on_one_cell_rejected(self):
        plan = FaultPlan(
            blockages=[BlockageFault(time=10, cell=(2, 3), duration=5)],
            closures=[
                AisleClosureFault(time=12, cells=((2, 2), (2, 3)), duration=4)
            ],
        )
        with pytest.raises(SimulationError) as exc:
            plan.validate()
        assert "(2, 3)" in str(exc.value)

    def test_disjoint_windows_pass_validation(self):
        plan = FaultPlan(
            stalls=[StallFault(time=10, robot_id=3, duration=5)],
            slowdowns=[SlowdownFault(time=30, robot_id=3, factor=2, duration=4)],
            blockages=[BlockageFault(time=10, cell=(2, 3), duration=5)],
            closures=[
                AisleClosureFault(time=40, cells=((2, 2), (2, 3)), duration=4)
            ],
        )
        plan.validate()  # no overlap on any robot or cell: fine
        # Overlapping *stalls* stay legal (they merge via max, as before).
        FaultPlan(
            stalls=[
                StallFault(time=10, robot_id=3, duration=5),
                StallFault(time=12, robot_id=3, duration=5),
            ]
        ).validate()

    def test_iteration_orders_kinds_at_equal_seconds(self):
        plan = FaultPlan(
            stalls=[StallFault(time=10, robot_id=0, duration=2)],
            blockages=[BlockageFault(time=10, cell=(1, 1), duration=2)],
            slowdowns=[SlowdownFault(time=10, robot_id=1, factor=2, duration=3)],
            closures=[
                AisleClosureFault(time=10, cells=((3, 3),), duration=2)
            ],
        )
        kinds = [type(f) for f in plan]
        assert kinds == [StallFault, SlowdownFault, BlockageFault,
                         AisleClosureFault]


class TestReplanFromAPI:
    def test_unknown_query_rejected(self, small_warehouse):
        planner = SRPPlanner(small_warehouse)
        with pytest.raises(InvalidQueryError):
            planner.replan_from(123, (1, 1), 5)

    def test_wrong_position_rejected(self, small_warehouse):
        planner = SRPPlanner(small_warehouse)
        free = small_warehouse.free_cells()
        route = planner.plan(Query(free[0], free[40], 0, query_id=1))
        mid = route.start_time + route.duration // 2
        wrong = free[40] if route.position_at(mid) != free[40] else free[39]
        with pytest.raises(InvalidQueryError):
            planner.replan_from(1, wrong, mid)

    def test_replan_revises_route_and_stays_consistent(self, small_warehouse):
        planner = SRPPlanner(small_warehouse)
        free = small_warehouse.free_cells()
        route = planner.plan(Query(free[0], free[40], 0, query_id=1))
        assert route.duration >= 2
        mid = route.start_time + route.duration // 2
        cell = route.position_at(mid)
        revised = planner.replan_from(1, cell, mid, hold_until=mid + 4)
        # The revised route replays the executed prefix, holds at the
        # stop cell through the stall, then reaches the destination.
        assert revised.start_time == route.start_time
        assert revised.grids[: mid - route.start_time + 1] == route.grids[
            : mid - route.start_time + 1
        ]
        assert all(
            revised.position_at(t) == cell for t in range(mid, mid + 4)
        )
        assert revised.destination == route.destination
        assert planner.take_revisions() == {1: revised}
        assert planner.stats.replans == 1
        assert planner.stats.decommitted_segments > 0
        # Stores must exactly describe the one surviving (revised) route.
        assert audit_planner_state(planner, [revised]) == []

    def test_replan_is_collision_aware_of_other_routes(self, small_warehouse):
        planner = SRPPlanner(small_warehouse)
        free = small_warehouse.free_cells()
        first = planner.plan(Query(free[0], free[40], 0, query_id=1))
        second = planner.plan(Query(free[40], free[0], 0, query_id=2))
        mid = first.start_time + first.duration // 2
        revised = planner.replan_from(1, first.position_at(mid), mid)
        assert_collision_free([revised, planner.committed_route(2)])
        assert audit_planner_state(planner, [revised, second]) == []

    def test_blockage_commitment_validated(self, small_warehouse):
        planner = SRPPlanner(small_warehouse)
        with pytest.raises(InvalidQueryError):
            planner.commit_blockage((-1, 0), 0, 5)
        with pytest.raises(InvalidQueryError):
            planner.commit_blockage((1, 1), 9, 3)


class TestFaultedSimulation:
    @pytest.fixture(scope="class")
    def w1_small(self):
        return w1(scale=0.35)

    @pytest.fixture(scope="class")
    def w1_tasks(self, w1_small):
        return generate_tasks(
            w1_small, TaskTraceSpec(n_tasks=90, day_length=450, seed=3)
        )

    @pytest.fixture(scope="class")
    def faults(self, w1_small):
        return FaultPlan.generate(
            w1_small,
            n_robots=len(w1_small.robot_homes),
            day_length=700,
            n_stalls=30,
            n_blockages=15,
            seed=5,
        )

    def test_faulted_day_is_collision_free_and_audited(
        self, w1_small, w1_tasks, faults
    ):
        """Acceptance: a seeded faulted W-1 day completes with zero
        validator collisions and zero store-audit violations."""
        planner = SRPPlanner(w1_small)
        result = run_day(
            w1_small, planner, w1_tasks,
            validate=True, measure_memory=False, faults=faults,
        )
        assert result.faults_injected == len(faults)
        assert result.replans > 0, "fault plan never disturbed an executing robot"
        assert result.conflicts == []
        assert result.audit_violations == []
        assert result.completed_tasks + result.failed_tasks == len(w1_tasks)

    def test_faulted_day_reproduces_bit_identically(
        self, w1_small, w1_tasks, faults
    ):
        """The same seeded plan on two fresh planners replays the same
        day under the default serial recovery."""
        def day():
            sim = Simulation(
                w1_small, SRPPlanner(w1_small), w1_tasks,
                validate=False, measure_memory=False, faults=faults,
            )
            result = sim.run()
            counters = {
                "replans": result.replans,
                "replan_attempts": result.replan_attempts,
                "decommitted_segments": result.decommitted_segments,
                "makespan": result.makespan,
            }
            return _routes_snapshot(sim), counters

        routes, counters = day()
        assert counters["replans"] > 0, "fault plan never disturbed an executing robot"
        assert day() == (routes, counters)

    def test_empty_fault_plan_is_bit_identical(self, w1_small, w1_tasks):
        def day(faults):
            planner = SRPPlanner(w1_small)
            sim = Simulation(
                w1_small, planner, w1_tasks,
                validate=False, measure_memory=False, faults=faults,
            )
            result = sim.run()
            return _routes_snapshot(sim), result.makespan

        base_routes, base_makespan = day(None)
        empty_routes, empty_makespan = day(FaultPlan.empty())
        assert empty_routes == base_routes
        assert empty_makespan == base_makespan

    def test_stall_replans_are_recorded_on_robots(self, w1_small, w1_tasks):
        faults = FaultPlan.generate(
            w1_small, n_robots=len(w1_small.robot_homes), day_length=700,
            n_stalls=20, seed=5,
        )
        planner = SRPPlanner(w1_small)
        sim = Simulation(
            w1_small, planner, w1_tasks,
            validate=False, measure_memory=False, faults=faults,
        )
        sim.run()
        assert sum(r.stalls for r in sim.fleet.robots) == 20
        assert planner.stats.replans == sim.replans + sim.recovery_failures

    def test_unrecoverable_planner_rejects_faults(self, small_warehouse):
        tasks = generate_tasks(
            small_warehouse, TaskTraceSpec(n_tasks=5, day_length=100, seed=1)
        )
        faults = FaultPlan(stalls=[StallFault(time=10, robot_id=0, duration=3)])
        planner = make_baseline("SAP", small_warehouse)
        with pytest.raises(SimulationError) as exc:
            Simulation(small_warehouse, planner, tasks, faults=faults)
        assert exc.value.phase == "fault-injection"
        # An empty plan is fine for any planner.
        Simulation(small_warehouse, planner, tasks, faults=FaultPlan.empty())
