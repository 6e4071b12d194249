"""Tests for region-sharded planning and the boundary 2PC.

Covers the partitioner's invariants, cross-region planning through the
two-phase boundary commit (collision-freedom, per-shard audits), exact
rollback of aborted prepares (Hypothesis round-trip on the store
fingerprints), single-shard equivalence with the plain planner
(bit-for-bit session replay), and worker-process lifecycle (spawn,
drain, no orphans).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.validate import (
    assert_collision_free,
    assert_routes_legal,
    audit_planner_state,
)
from repro.core.planner import SRPPlanner
from repro.core.strips import build_strip_graph
from repro.exceptions import InvalidQueryError
from repro.service import ServiceConfig, ServiceCore, replay_session
from repro.service.sharding import (
    InlineShard,
    ShardedPlanner,
    ShardWorker,
    compute_partition,
)
from repro.types import Query, QueryKind
from repro.warehouse.layout import LayoutSpec, generate_layout

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def _warehouse():
    return generate_layout(
        LayoutSpec(height=28, width=20, cluster_length=4,
                   n_pickers=4, n_robots=6, seed=2),
        name="shard-small",
    )


WAREHOUSE = _warehouse()
GRAPH = build_strip_graph(WAREHOUSE)


def band_cells(partition, region, limit=40):
    lo, hi = partition.bounds[region]
    return [
        c for c in WAREHOUSE.free_cells() if lo <= c[0] <= hi
    ][:limit]


def store_fingerprint(planner):
    """Bit-level content of a planner's stores and crossing ledger.

    Live segments per strip (sorted) and the ledger's crossing keys:
    exactly what an exact rollback must restore.  The ``queries`` and
    ``judged`` counters are left out, since they keep counting, and so
    is ``last_end``, a high-water mark that a removal never lowers.
    """
    segments = {}
    for idx, store in planner.stores.active_items():
        segs = sorted((s.t0, s.p0, s.t1, s.p1) for s in store.iter_segments())
        if segs:
            segments[idx] = segs
    return segments, sorted(planner.crossings.iter_keys())


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
class TestPartition:
    def test_bands_are_contiguous_and_cover_all_rows(self):
        part = compute_partition(WAREHOUSE, GRAPH, 4)
        assert part.k == 4
        assert part.bounds[0][0] == 0
        assert part.bounds[-1][1] == WAREHOUSE.height - 1
        for (_, hi), (lo, _) in zip(part.bounds, part.bounds[1:]):
            assert lo == hi + 1

    def test_cut_rows_are_full_aisle_rows(self):
        part = compute_partition(WAREHOUSE, GRAPH, 3)
        for _, hi in part.bounds[:-1]:
            assert not WAREHOUSE.racks[hi].any()

    def test_no_strip_spans_a_cut(self):
        part = compute_partition(WAREHOUSE, GRAPH, 4)
        for strip, region in zip(GRAPH.strips, part.strip_region):
            cells = [strip.grid_at(p) for p in range(strip.length)]
            assert {part.region_of_cell(c) for c in cells} == {region}

    def test_boundary_columns_are_free_on_both_sides(self):
        part = compute_partition(WAREHOUSE, GRAPH, 4)
        for b, cols in enumerate(part.boundary_columns):
            cut = part.bounds[b][1]
            assert cols
            for col in cols:
                assert WAREHOUSE.is_free((cut, col))
                assert WAREHOUSE.is_free((cut + 1, col))

    def test_k_clamped_to_available_cuts(self):
        part = compute_partition(WAREHOUSE, GRAPH, 500)
        assert 1 <= part.k < 500
        assert len(part.bounds) == part.k

    def test_k1_is_one_band(self):
        part = compute_partition(WAREHOUSE, GRAPH, 1)
        assert part.k == 1
        assert part.bounds == ((0, WAREHOUSE.height - 1),)
        assert part.boundary_columns == ()

    def test_deterministic(self):
        a = compute_partition(WAREHOUSE, GRAPH, 4)
        b = compute_partition(WAREHOUSE, GRAPH, 4)
        assert a == b

    def test_region_mask_matches_strip_region(self):
        part = compute_partition(WAREHOUSE, GRAPH, 3)
        for region in range(part.k):
            mask = part.mask(region)
            assert all(
                mask[i] == (part.strip_region[i] == region)
                for i in range(len(mask))
            )

    def test_invalid_k_raises(self):
        with pytest.raises(ValueError):
            compute_partition(WAREHOUSE, GRAPH, 0)


# ----------------------------------------------------------------------
# Region-restricted planners
# ----------------------------------------------------------------------
class TestRegionRestriction:
    def test_out_of_region_endpoint_rejected(self):
        part = compute_partition(WAREHOUSE, GRAPH, 2)
        planner = SRPPlanner(WAREHOUSE, region=part.mask(0))
        inside = band_cells(part, 0)
        outside = band_cells(part, 1)
        with pytest.raises(InvalidQueryError, match="region"):
            planner.plan(Query(inside[0], outside[0], 0, query_id=1))

    def test_in_region_planning_stays_in_region(self):
        part = compute_partition(WAREHOUSE, GRAPH, 2)
        planner = SRPPlanner(WAREHOUSE, region=part.mask(1))
        cells = band_cells(part, 1)
        route = planner.plan(Query(cells[0], cells[-1], 0, query_id=1))
        for _, grid in route.steps():
            assert part.region_of_cell(grid) == 1


# ----------------------------------------------------------------------
# Cross-region planning (inline shards)
# ----------------------------------------------------------------------
class TestCrossRegion:
    def test_routes_collision_free_and_audited(self):
        sp = ShardedPlanner(WAREHOUSE, workers=3, mode="inline")
        part = sp.partition
        top = band_cells(part, 0)
        bottom = band_cells(part, sp.shard_count - 1)
        routes = []
        for i in range(14):
            origin, dest = top[i], bottom[(3 * i) % len(bottom)]
            if i % 2:
                origin, dest = dest, origin
            query = Query(origin, dest, i // 3, QueryKind.GENERIC, i)
            route = sp.plan(query)
            assert route.origin == origin and route.destination == dest
            assert route.start_time >= query.release_time
            routes.append(route)
        assert_collision_free(routes)
        assert_routes_legal(routes, WAREHOUSE)
        stats = sp.router_stats()
        assert stats["cross"] == 14
        assert stats["cross_committed"] == 14
        # every shard's own stores must explain exactly its band of the
        # full cross-region routes
        assert sp.audit(routes) == []

    def test_intra_region_queries_forwarded_whole(self):
        sp = ShardedPlanner(WAREHOUSE, workers=2, mode="inline")
        cells = band_cells(sp.partition, 0)
        route = sp.plan(Query(cells[0], cells[-1], 0, query_id=5))
        assert route.query_id == 5
        stats = sp.router_stats()
        assert stats["intra"] == 1 and stats["cross"] == 0

    def test_rung_methods_route_cross_region(self):
        sp = ShardedPlanner(WAREHOUSE, workers=2, mode="inline")
        top = band_cells(sp.partition, 0)
        bottom = band_cells(sp.partition, 1)
        cached = sp.plan_strip_only(Query(top[0], bottom[0], 0, query_id=1))
        fallback = sp.plan_fallback_only(Query(top[2], bottom[2], 0, query_id=2))
        assert cached is not None and fallback is not None
        assert_collision_free([cached, fallback])

    def test_anonymous_cross_query_keeps_its_id(self):
        sp = ShardedPlanner(WAREHOUSE, workers=2, mode="inline")
        top = band_cells(sp.partition, 0)
        bottom = band_cells(sp.partition, 1)
        route = sp.plan(Query(top[0], bottom[0], 0, query_id=-1))
        assert route.query_id == -1

    def test_out_of_bounds_query_raises(self):
        sp = ShardedPlanner(WAREHOUSE, workers=2, mode="inline")
        with pytest.raises(InvalidQueryError):
            sp.plan(Query((-1, 0), (5, 5), 0, query_id=1))

    def test_reset_clears_all_shards(self):
        sp = ShardedPlanner(WAREHOUSE, workers=2, mode="inline")
        top = band_cells(sp.partition, 0)
        bottom = band_cells(sp.partition, 1)
        sp.plan(Query(top[0], bottom[0], 0, query_id=1))
        sp.reset()
        assert sp.router_stats()["cross"] == 0
        for shard in sp._shards:
            assert store_fingerprint(shard.worker.planner) == ({}, [])


# ----------------------------------------------------------------------
# Two-phase commit rollback (Hypothesis round-trip)
# ----------------------------------------------------------------------
class TestAbortRollback:
    def _loaded_planner(self):
        """A 2-shard inline planner with committed background traffic."""
        sp = ShardedPlanner(WAREHOUSE, workers=2, mode="inline")
        top = band_cells(sp.partition, 0)
        bottom = band_cells(sp.partition, 1)
        for i, (o, d) in enumerate(
            [(top[0], bottom[0]), (bottom[3], top[3]), (top[5], top[9])]
        ):
            sp.plan(Query(o, d, i, QueryKind.GENERIC, 100 + i))
        return sp

    @settings(max_examples=25, deadline=None)
    @given(
        oi=st.integers(0, 19),
        di=st.integers(0, 19),
        release=st.integers(0, 12),
        col_choice=st.integers(0, 3),
        data=st.data(),
    )
    def test_aborted_prepare_leaves_stores_bit_identical(
        self, oi, di, release, col_choice, data
    ):
        sp = self._loaded_planner()
        part = sp.partition
        top = band_cells(part, 0)
        bottom = band_cells(part, 1)
        w0 = sp._shards[0].worker
        w1 = sp._shards[1].worker
        before = (store_fingerprint(w0.planner), store_fingerprint(w1.planner))

        origin, dest = top[oi % len(top)], bottom[di % len(bottom)]
        exit_cell, entry_cell = sp._boundary_pair(0, 1, col_choice, dest[1])
        qid = 777
        prepared = []
        first = w0.handle({
            "op": "prepare", "id": qid, "origin": list(origin),
            "dest": list(exit_cell), "release": release,
            "rung": "full", "exit_to": list(entry_cell),
        })
        if first["status"] == "ok":
            prepared.append(w0)
            arrival = first["arrival"]
            second = w1.handle({
                "op": "prepare", "id": qid, "origin": list(entry_cell),
                "dest": list(dest), "release": arrival + 1, "rung": "full",
                "entry": {"from": list(exit_cell), "cell": list(entry_cell),
                          "time": arrival + 1},
            })
            if second["status"] == "ok":
                prepared.append(w1)
        # Sometimes abort only a prefix (a mid-transaction failure),
        # sometimes everything that prepared.
        n_abort = data.draw(st.integers(0, len(prepared)))
        for worker in prepared[:n_abort] + prepared[n_abort:]:
            reply = worker.handle({"op": "abort", "id": qid})
            assert reply["status"] == "ok"
        after = (store_fingerprint(w0.planner), store_fingerprint(w1.planner))
        assert after == before

    def test_abort_is_idempotent(self):
        sp = ShardedPlanner(WAREHOUSE, workers=2, mode="inline")
        worker = sp._shards[0].worker
        for _ in range(2):
            reply = worker.handle({"op": "abort", "id": 4242})
            assert reply == {"status": "ok", "removed": 0}

    def test_commit_binds_claims_into_record(self):
        """After prepare + commit, aborting removes the claims too."""
        sp = self._loaded_planner()
        part = sp.partition
        top = band_cells(part, 0)
        w0 = sp._shards[0].worker
        before = store_fingerprint(w0.planner)
        exit_cell, entry_cell = sp._boundary_pair(0, 1, 0, 5)
        qid = 888
        reply = w0.handle({
            "op": "prepare", "id": qid, "origin": list(top[7]),
            "dest": list(exit_cell), "release": 2, "rung": "full",
            "exit_to": list(entry_cell),
        })
        assert reply["status"] == "ok"
        assert w0.handle({"op": "commit", "id": qid})["status"] == "ok"
        assert store_fingerprint(w0.planner) != before
        assert w0.handle({"op": "abort", "id": qid})["status"] == "ok"
        assert store_fingerprint(w0.planner) == before


# ----------------------------------------------------------------------
# Single-shard equivalence and replay
# ----------------------------------------------------------------------
class TestSingleShardEquivalence:
    QUERIES = [
        ((1, 1), (26, 18)), ((25, 2), (2, 17)), ((3, 4), (5, 16)),
        ((20, 1), (22, 19)), ((10, 3), (24, 8)),
    ]

    def test_k1_routes_match_plain_planner(self):
        sharded = ShardedPlanner(WAREHOUSE, workers=1, mode="inline")
        plain = SRPPlanner(WAREHOUSE)
        for i, (o, d) in enumerate(self.QUERIES):
            q = Query(o, d, i, QueryKind.GENERIC, i)
            a, b = sharded.plan(q), plain.plan(q)
            assert (a.start_time, a.grids) == (b.start_time, b.grids)

    def test_recorded_session_replays_bit_for_bit(self):
        """A classic single-planner session trace replays exactly
        through the sharded service in ``--workers 1`` mode."""
        from repro.service.loadgen import LoadSpec, drive_simulated, make_schedule

        core = ServiceCore(
            SRPPlanner(WAREHOUSE),
            ServiceConfig(queue_capacity=64, default_deadline_ms=0),
        )
        schedule = make_schedule(WAREHOUSE, LoadSpec(n_queries=30, seed=11))
        drive_simulated(core, schedule, cost_ms=1, prune_every=0)
        trace = core.trace
        assert len(trace) >= 25
        report = replay_session(
            trace, ShardedPlanner(WAREHOUSE, workers=1, mode="inline")
        )
        for original, replayed in zip(trace.entries, report.replayed.entries):
            assert replayed.route.start_time == original.route.start_time
            assert replayed.route.grids == original.route.grids

    def test_multi_shard_runs_are_deterministic(self):
        def run():
            sp = ShardedPlanner(WAREHOUSE, workers=3, mode="inline")
            part = sp.partition
            top, bottom = band_cells(part, 0), band_cells(part, 2)
            return [
                sp.plan(Query(top[i], bottom[-1 - i], i, QueryKind.GENERIC, i))
                for i in range(8)
            ]

        first, second = run(), run()
        assert [(r.start_time, r.grids) for r in first] == [
            (r.start_time, r.grids) for r in second
        ]


# ----------------------------------------------------------------------
# Worker shard dispatch / codec envelope
# ----------------------------------------------------------------------
class TestShardWorkerOps:
    def test_unknown_op_is_structured_error(self):
        worker = ShardWorker(WAREHOUSE, 0, 1)
        reply = worker.handle({"op": "teleport"})
        assert reply["status"] == "error"
        assert "teleport" in reply["note"]

    def test_malformed_plan_is_structured_error(self):
        worker = ShardWorker(WAREHOUSE, 0, 1)
        reply = worker.handle({"op": "plan", "id": 1})  # no origin/dest
        assert reply["status"] == "error"

    @pytest.mark.parametrize("op", ["plan", "prepare"])
    def test_unknown_rung_is_structured_error(self, op):
        worker = ShardWorker(WAREHOUSE, 0, 1)
        cells = WAREHOUSE.free_cells()
        reply = worker.handle({
            "op": op, "id": 1, "origin": list(cells[0]), "dest": list(cells[5]),
            "rung": "teleport",
        })
        assert reply["status"] == "error"
        assert "teleport" in reply["note"]
        assert worker.planner.n_segments == 0

    def test_inline_shard_round_trips_codec(self):
        shard = InlineShard(ShardWorker(WAREHOUSE, 0, 1))
        assert shard.request({"op": "ping"})["status"] == "ok"
        # a message the strict codec rejects comes back as an error
        reply = shard.request({"op": 7})
        assert reply["status"] == "error"

    def test_worker_audit_op(self):
        sp = ShardedPlanner(WAREHOUSE, workers=2, mode="inline")
        top = band_cells(sp.partition, 0)
        bottom = band_cells(sp.partition, 1)
        route = sp.plan(Query(top[0], bottom[0], 0, query_id=1))
        for shard_id, shard in enumerate(sp._shards):
            worker = shard.worker
            violations = audit_planner_state(
                worker.planner, [route],
                cell_filter=lambda c, s=shard_id: (
                    sp.partition.region_of_cell(c) == s
                ),
            )
            assert violations == []


# ----------------------------------------------------------------------
# Process workers: spawn, shutdown, no orphans
# ----------------------------------------------------------------------
class TestProcessWorkers:
    def test_spawn_plan_and_clean_shutdown(self):
        sp = ShardedPlanner(WAREHOUSE, workers=2, mode="process")
        try:
            assert sp.workers_alive() == sp.shard_count == 2
            top = band_cells(sp.partition, 0)
            bottom = band_cells(sp.partition, 1)
            route = sp.plan(Query(top[0], bottom[0], 0, query_id=1))
            assert route.origin == top[0] and route.destination == bottom[0]
            assert sp.audit([route]) == []
        finally:
            sp.close()
        assert sp.workers_alive() == 0
        for shard in sp._shards:
            assert not shard.process.is_alive()

    def test_worker_survives_malformed_pipe_frames(self):
        """Garbage on the pipe gets a structured error; the worker lives."""
        sp = ShardedPlanner(WAREHOUSE, workers=2, mode="process")
        try:
            shard = sp._shards[0]
            with shard._lock:
                shard._conn.send_bytes(b"this is not json\n")
                error = json.loads(shard._conn.recv_bytes())
            assert error["status"] == "error"
            assert "JSON" in error["note"]
            assert shard.request({"op": "ping"})["status"] == "ok"
            assert shard.process.is_alive()
        finally:
            sp.close()
        assert sp.workers_alive() == 0

    def test_close_is_idempotent(self):
        sp = ShardedPlanner(WAREHOUSE, workers=2, mode="process")
        sp.close()
        sp.close()
        assert sp.workers_alive() == 0
