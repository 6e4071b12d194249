"""Tests for the deterministic service core: admission, deadlines, rungs.

The central property (the acceptance criterion of the service): driving
the same seeded open-loop schedule through two fresh cores on the same
simulated clock yields identical replies, identical shed/timeout
decisions, identical telemetry, and a byte-identical saved trace.
"""

import filecmp

import pytest

from repro.core.planner import SRPPlanner
from repro.exceptions import PlanningFailedError
from repro.planner_base import Planner
from repro.service import (
    TIER_CARRYING,
    TIER_CHARGE,
    TIER_IDLE,
    Reply,
    ReplyStatus,
    Request,
    Rung,
    ServiceConfig,
    ServiceCore,
    replay_session,
)
from repro.service.loadgen import LoadSpec, drive_simulated, make_schedule
from repro.tracing import load_trace, save_trace
from repro.types import Query


class ExplodingPlanner(Planner):
    """A planner that fails every query — exercises the FAILED path."""

    name = "BOOM"

    def plan(self, query: Query):
        raise PlanningFailedError("nope", query_id=query.query_id)

    def reset(self) -> None:
        pass


@pytest.fixture
def core(small_warehouse) -> ServiceCore:
    return ServiceCore(SRPPlanner(small_warehouse))


def queries_from(warehouse, n=6):
    free = warehouse.free_cells()
    return [Query(free[i], free[-1 - i], 0, query_id=i) for i in range(n)]


class TestAdmission:
    def test_fifo_order_and_answers(self, core, small_warehouse):
        for i, q in enumerate(queries_from(small_warehouse, 4)):
            assert core.submit(Request(i, q, arrival_ms=i), now_ms=i) is None
        answered = core.drain(now_ms=10)
        assert [req.request_id for req, _ in answered] == [0, 1, 2, 3]
        assert all(r.status is ReplyStatus.OK for _, r in answered)
        assert all(r.rung == "full" for _, r in answered)
        assert core.telemetry.count("admitted") == 4

    def test_queue_full_sheds_immediately(self, small_warehouse):
        core = ServiceCore(SRPPlanner(small_warehouse),
                           ServiceConfig(queue_capacity=2))
        qs = queries_from(small_warehouse, 3)
        assert core.submit(Request(0, qs[0], 0), 0) is None
        assert core.submit(Request(1, qs[1], 0), 0) is None
        shed = core.submit(Request(2, qs[2], 0), 0)
        assert shed is not None and shed.status is ReplyStatus.SHED
        assert shed.note == "admission queue full"
        assert core.telemetry.count("shed") == 1
        assert core.pending() == 2
        # the shed request never reaches the trace
        core.drain(0)
        assert len(core.trace) == 2

    def test_default_deadline_is_relative_to_arrival(self, small_warehouse):
        core = ServiceCore(SRPPlanner(small_warehouse),
                           ServiceConfig(default_deadline_ms=30))
        q = queries_from(small_warehouse, 1)[0]
        # submitted late (now=120) but arrived at 100: deadline is 130
        core.submit(Request(0, q, arrival_ms=100), now_ms=120)
        _, reply = core.process_next(now_ms=125)
        assert reply.status is not ReplyStatus.TIMEOUT
        core.submit(Request(1, q, arrival_ms=100), now_ms=120)
        _, reply = core.process_next(now_ms=131)
        assert reply.status is ReplyStatus.TIMEOUT

    def test_timeout_skips_the_planner(self, small_warehouse):
        # the exploding planner would turn any planning attempt into
        # FAILED, so a TIMEOUT reply proves the planner was never called
        core = ServiceCore(ExplodingPlanner())
        q = queries_from(small_warehouse, 1)[0]
        core.submit(Request(0, q, arrival_ms=0, deadline_ms=10), 0)
        _, reply = core.process_next(now_ms=11)
        assert reply.status is ReplyStatus.TIMEOUT
        assert reply.note == "deadline expired in queue"
        assert core.telemetry.count("timeout") == 1
        assert len(core.trace) == 0

    def test_exhausted_ladder_reports_failed(self, small_warehouse):
        core = ServiceCore(ExplodingPlanner())
        q = queries_from(small_warehouse, 1)[0]
        core.submit(Request(0, q, 0), 0)
        _, reply = core.process_next(0)
        assert reply.status is ReplyStatus.FAILED
        assert reply.note == "no rung found a route"
        assert core.telemetry.count("failed") == 1


class TestDegradationLadder:
    def ladder_reply(self, core, small_warehouse, process_at: int) -> Reply:
        q = queries_from(small_warehouse, 1)[0]
        core.submit(Request(0, q, arrival_ms=0, deadline_ms=60), 0)
        _, reply = core.process_next(now_ms=process_at)
        return reply

    def test_ample_budget_runs_full(self, core, small_warehouse):
        reply = self.ladder_reply(core, small_warehouse, process_at=0)
        assert reply.status is ReplyStatus.OK
        assert reply.rung == "full"

    def test_mid_budget_degrades_to_cached(self, core, small_warehouse):
        # remaining 60-15=45 < full_budget 50 but >= cached_budget 10
        reply = self.ladder_reply(core, small_warehouse, process_at=15)
        assert reply.status is ReplyStatus.DEGRADED
        assert reply.rung == "cached"
        assert reply.route is not None and reply.route.is_unit_speed()

    def test_thin_budget_degrades_to_fallback(self, core, small_warehouse):
        # remaining 60-55=5 < cached_budget 10
        reply = self.ladder_reply(core, small_warehouse, process_at=55)
        assert reply.status is ReplyStatus.DEGRADED
        assert reply.rung == "fallback"
        assert reply.route is not None

    def test_no_deadline_always_full(self, core, small_warehouse):
        q = queries_from(small_warehouse, 1)[0]
        core.submit(Request(0, q, arrival_ms=0), 0)
        _, reply = core.process_next(now_ms=10_000)
        assert reply.rung == "full"

    def test_degraded_routes_recorded_with_rung_tag(self, core, small_warehouse):
        self.ladder_reply(core, small_warehouse, process_at=15)
        assert [e.tag for e in core.trace.entries] == ["cached"]
        assert core.telemetry.count("rung_cached") == 1


def overloaded_run(warehouse, seed=11):
    """One deterministic overloaded session: sheds, timeouts, rungs."""
    schedule = make_schedule(
        warehouse, LoadSpec(n_queries=40, rate_qps=400.0, seed=seed,
                            deadline_ms=45),
    )
    core = ServiceCore(SRPPlanner(warehouse), ServiceConfig(queue_capacity=3))
    results = drive_simulated(core, schedule, cost_ms=7)
    return core, results


class TestDeterminism:
    def test_two_drives_are_identical(self, small_warehouse, tmp_path):
        core1, results1 = overloaded_run(small_warehouse)
        core2, results2 = overloaded_run(small_warehouse)
        fps1 = [r.fingerprint() for _, r in results1]
        fps2 = [r.fingerprint() for _, r in results2]
        assert fps1 == fps2
        assert core1.telemetry.snapshot() == core2.telemetry.snapshot()
        # the whole session trace round-trips byte-for-byte
        p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        save_trace(core1.trace, p1)
        save_trace(core2.trace, p2)
        assert filecmp.cmp(p1, p2, shallow=False)

    def test_overload_mix_is_nontrivial(self, small_warehouse):
        core, results = overloaded_run(small_warehouse)
        statuses = {r.status for _, r in results}
        assert ReplyStatus.SHED in statuses  # queue_capacity=3 must shed
        answered = [r for _, r in results
                    if r.status in (ReplyStatus.OK, ReplyStatus.DEGRADED)]
        assert answered, "the overloaded run still answers something"
        assert len(core.trace) == len(answered)

    def test_stats_snapshot_reports_planner_counters(self, small_warehouse):
        core, _ = overloaded_run(small_warehouse)
        snap = core.stats_snapshot()
        assert snap["pending"] == 0
        assert snap["trace_entries"] == len(core.trace)
        assert "fallbacks" in snap["planner"]


class TestPriorityTiers:
    def full_core(self, warehouse, capacity=2):
        core = ServiceCore(SRPPlanner(warehouse),
                           ServiceConfig(queue_capacity=capacity))
        qs = queries_from(warehouse, capacity)
        for i, q in enumerate(qs):
            assert core.submit(Request(i, q, 0), 0) is None  # idle tier
        return core, queries_from(warehouse, capacity + 2)

    def test_default_tier_is_idle(self, small_warehouse):
        core = ServiceCore(SRPPlanner(small_warehouse))
        q = queries_from(small_warehouse, 1)[0]
        core.submit(Request(0, q, 0), 0)
        assert core.telemetry.count(f"requests_tier_{TIER_IDLE}") == 1

    def test_equal_tier_arrival_is_shed_not_evicting(self, small_warehouse):
        core, qs = self.full_core(small_warehouse)
        shed = core.submit(Request(9, qs[0], 0, priority=TIER_IDLE), 0)
        assert shed is not None and shed.status is ReplyStatus.SHED
        assert core.telemetry.count(f"shed_tier_{TIER_IDLE}") == 1
        # both originally queued requests still get answered
        answered = core.drain(0)
        assert [req.request_id for req, _ in answered] == [0, 1]

    def test_critical_arrival_evicts_newest_idle_request(self, small_warehouse):
        """Acceptance: a critical-battery (charge-tier) request is never
        shed while idle-tier requests sit in the queue."""
        core, qs = self.full_core(small_warehouse)
        assert core.submit(Request(9, qs[0], 0, priority=TIER_CHARGE), 0) is None
        # the *most recent* idle request (id 1) lost its slot
        answered = core.drain(0)
        by_id = {req.request_id: reply for req, reply in answered}
        assert by_id[1].status is ReplyStatus.SHED
        assert by_id[1].note == "evicted by higher-priority admission"
        assert by_id[0].status is ReplyStatus.OK
        assert by_id[9].status is ReplyStatus.OK
        # the shed was charged to the victim's tier, not the arrival's
        assert core.telemetry.count(f"shed_tier_{TIER_IDLE}") == 1
        assert core.telemetry.count(f"shed_tier_{TIER_CHARGE}") == 0

    def test_carrying_outranks_charge(self, small_warehouse):
        core = ServiceCore(SRPPlanner(small_warehouse),
                           ServiceConfig(queue_capacity=1))
        qs = queries_from(small_warehouse, 3)
        assert core.submit(Request(0, qs[0], 0, priority=TIER_CHARGE), 0) is None
        assert core.submit(Request(1, qs[1], 0, priority=TIER_CARRYING), 0) is None
        # charge-tier work cannot displace carrying-tier work
        shed = core.submit(Request(2, qs[2], 0, priority=TIER_CHARGE), 0)
        assert shed is not None and shed.status is ReplyStatus.SHED
        by_id = {req.request_id: r for req, r in core.drain(0)}
        assert by_id[0].status is ReplyStatus.SHED  # evicted by request 1
        assert by_id[1].status is ReplyStatus.OK

    def test_eviction_keeps_capacity_accounting(self, small_warehouse):
        core, qs = self.full_core(small_warehouse)
        assert core.submit(Request(9, qs[0], 0, priority=TIER_CARRYING), 0) is None
        # the evicted slot was freed: live depth is still == capacity,
        # so the next idle arrival sheds rather than overfilling
        assert core.pending() - core._evicted_pending == 2
        shed = core.submit(Request(10, qs[1], 0, priority=TIER_IDLE), 0)
        assert shed is not None and shed.status is ReplyStatus.SHED

    def test_evicted_requests_skip_planner_and_histograms(self, small_warehouse):
        core, qs = self.full_core(small_warehouse)
        core.submit(Request(9, qs[0], 0, priority=TIER_CARRYING), 0)
        core.drain(0)
        hist = core.telemetry.histograms.get("queue_ms")
        served = core.telemetry.count("ok") + core.telemetry.count("degraded")
        assert hist is not None and hist.total == served
        # the evicted request never reaches the trace
        assert len(core.trace) == served

    def test_snapshot_reports_per_tier_shed_rates(self, small_warehouse):
        core, qs = self.full_core(small_warehouse)
        core.submit(Request(9, qs[0], 0, priority=TIER_CHARGE), 0)
        snap = core.stats_snapshot()
        tiers = snap["shed_rate_tiers"]
        assert tiers[str(TIER_IDLE)] == 0.5  # one of two idle requests shed
        assert tiers[str(TIER_CHARGE)] == 0.0

    def test_tierless_session_omits_tier_breakdown(self, small_warehouse):
        core = ServiceCore(SRPPlanner(small_warehouse))
        assert "shed_rate_tiers" not in core.stats_snapshot()


class TestTraceRoundTrip:
    def test_degraded_session_replays_bit_identically(
        self, small_warehouse, tmp_path
    ):
        core, _ = overloaded_run(small_warehouse)
        tags = {e.tag for e in core.trace.entries}
        assert tags - {"full"}, "session must contain degraded answers"

        path = tmp_path / "session.jsonl"
        save_trace(core.trace, path)
        loaded = load_trace(path)
        assert [e.tag for e in loaded.entries] == [
            e.tag for e in core.trace.entries
        ]

        report = replay_session(loaded, SRPPlanner(small_warehouse))
        assert report.duration_deltas == [0] * len(loaded)
        for original, replayed in zip(report.original.entries,
                                      report.replayed.entries):
            assert replayed.route.start_time == original.route.start_time
            assert replayed.route.grids == original.route.grids
            assert replayed.tag == original.tag

        # and the replayed trace serialises to the same bytes
        path2 = tmp_path / "replayed.jsonl"
        save_trace(report.replayed, path2)
        assert filecmp.cmp(path, path2, shallow=False)

    def test_replay_raises_when_recorded_rung_cannot_answer(
        self, small_warehouse
    ):
        core, _ = overloaded_run(small_warehouse)
        assert len(core.trace) > 0
        with pytest.raises(PlanningFailedError) as excinfo:
            replay_session(core.trace, ExplodingPlanner())
        assert excinfo.value.phase in ("full", "cached", "fallback")


class TestRungHelpers:
    def test_plan_at_rung_generic_planner_serves_all_rungs(
        self, small_warehouse
    ):
        from repro.baselines import make_baseline
        from repro.service import plan_at_rung

        planner = make_baseline("SAP", small_warehouse)
        q = queries_from(small_warehouse, 1)[0]
        for rung in Rung:
            route = plan_at_rung(planner, q, rung)
            assert route is not None
            planner.reset()

    def test_srp_rung_methods_commit_routes(self, small_warehouse):
        planner = SRPPlanner(small_warehouse)
        free = small_warehouse.free_cells()
        a = planner.plan_strip_only(Query(free[0], free[-1], 0, query_id=0))
        b = planner.plan_fallback_only(Query(free[1], free[-2], 0, query_id=1))
        assert a is not None and b is not None
        assert planner.timers.queries == 2
