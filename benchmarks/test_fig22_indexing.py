"""Figure 22 — the need for slope-based indexing.

(a) breakdown of SRP's planning time into inter-strip, intra-strip and
    representation-conversion components, *without* the slope index:
    intra-strip collision detection dominates;
(b) intra-strip time with the naive ordered-set store (Sec. V-B) versus
    the slope-based index (Sec. V-D): the paper reports the index
    cutting intra-strip time by about half on congested traces.
"""

import pytest

from benchmarks.conftest import BENCH_SCALE, BENCH_TASKS
from repro import SRPPlanner, TaskTraceSpec, datasets, generate_tasks, run_day
from repro.analysis import format_table
from repro.core.naive_store import NaiveSegmentStore
from repro.core.slope_index import SlopeIndexedStore


def _run_day_with(warehouse, tasks, store, store_class):
    # The object layout keeps the paper's stores: the columnar default
    # of store="slope" answers from a band index and counts its
    # judgements differently.
    planner = SRPPlanner(warehouse, store=store, store_layout="object")
    result = run_day(warehouse, planner, tasks, measure_memory=False)
    assert result.failed_tasks == 0
    stores = list(planner.stores)
    assert stores and all(type(s) is store_class for s in stores)
    return planner, result


@pytest.fixture(scope="module")
def fig22_runs():
    warehouse = datasets.w1(scale=BENCH_SCALE)
    # A denser trace than the other figures: indexing matters most when
    # strips hold many concurrent segments.
    tasks = generate_tasks(
        warehouse,
        TaskTraceSpec(n_tasks=max(120, int(1.5 * BENCH_TASKS)), day_length=600, seed=31),
    )
    naive = _run_day_with(warehouse, tasks, "naive", NaiveSegmentStore)
    indexed = _run_day_with(warehouse, tasks, "slope", SlopeIndexedStore)
    return naive, indexed


def test_fig22a_breakdown(fig22_runs, bench_header, benchmark):
    naive_planner, _result = fig22_runs[0]
    stats = naive_planner.stats
    total = stats.total_time
    print()
    print(bench_header)
    print(
        format_table(
            ["component", "seconds", "share"],
            [
                ["inter-strip", f"{stats.inter_time:.4f}", f"{stats.inter_time / total:.0%}"],
                ["intra-strip", f"{stats.intra_time:.4f}", f"{stats.intra_time / total:.0%}"],
                ["conversion", f"{stats.conversion_time:.4f}", f"{stats.conversion_time / total:.0%}"],
            ],
            title="Fig. 22(a) — SRP TC breakdown without slope indexing",
        )
    )
    # Shape: collision detection (intra-strip) is a major component and
    # conversion is negligible.  Note: the paper reports intra-strip
    # *dominating*; our implementation's lazy edge evaluation and O(1)
    # wait jumps shrink it below the inter-strip bookkeeping at this
    # scale — see EXPERIMENTS.md for the discussion.
    assert stats.intra_time > 5 * stats.conversion_time
    assert stats.intra_time > 0.2 * total
    benchmark(lambda: stats.total_time)


def test_fig22b_indexing_speedup(fig22_runs, bench_header, benchmark):
    (naive_planner, naive_result), (indexed_planner, indexed_result) = fig22_runs
    print()
    print(bench_header)
    print(
        format_table(
            ["store", "intra-strip s", "total TC s", "judgements"],
            [
                [
                    "naive (V-B)",
                    f"{naive_planner.stats.intra_time:.4f}",
                    f"{naive_result.tc_seconds:.4f}",
                    sum(s.judged for s in naive_planner.stores),
                ],
                [
                    "slope index (V-D)",
                    f"{indexed_planner.stats.intra_time:.4f}",
                    f"{indexed_result.tc_seconds:.4f}",
                    sum(s.judged for s in indexed_planner.stores),
                ],
            ],
            title="Fig. 22(b) — intra-strip time, naive vs slope-based index",
        )
    )
    # Shape: the slope index cuts pairwise judgements hard (the paper's
    # ~50% intra-strip saving comes from exactly this) and the two days
    # agree on the outcome.
    naive_judged = sum(s.judged for s in naive_planner.stores)
    indexed_judged = sum(s.judged for s in indexed_planner.stores)
    assert indexed_judged < 0.6 * naive_judged
    # Wall-clock is machine-noisy; the index must at least not lose
    # badly (the deterministic judgement count above is the real claim).
    assert indexed_planner.stats.intra_time < 1.3 * naive_planner.stats.intra_time
    assert naive_result.og == indexed_result.og
    benchmark(lambda: indexed_judged)


def test_benchmark_collision_judgement(benchmark):
    """Microbenchmark: one earliest-conflict query on a busy strip."""
    from repro.core.segments import make_move, make_wait

    store = SlopeIndexedStore()
    for k in range(200):
        if k % 3 == 0:
            store.insert(make_wait(3 * k, k % 30, 4))
        elif k % 3 == 1:
            store.insert(make_move(2 * k, k % 25, (k + 7) % 25))
        else:
            store.insert(make_move(k, (k + 11) % 28, k % 28))
    probe = make_move(290, 0, 29)
    benchmark(store.earliest_conflict, probe)
