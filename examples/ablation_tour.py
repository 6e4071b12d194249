#!/usr/bin/env python3
"""Tour of SRP's ablation axes.

Runs the same online query stream through SRP variants and compares
planning time, route quality and fallback counts:

* segment store backends: slope index (Alg. 3) in the columnar
  layout (the default) and the object layout / naive (Sec. V-B);
* intra-strip search: greedy (Alg. 2) / exact / exact+backward
  (lifting the Fig. 13 restriction);
* inter-strip search: A*-guided (ours) / plain Dijkstra (paper).

Run:  python examples/ablation_tour.py
"""

import random

from repro import Query, SRPPlanner, datasets
from repro.analysis import format_table


def make_queries(warehouse, n=80, seed=29, spacing=4):
    rng = random.Random(seed)
    pool = warehouse.free_cells() + warehouse.rack_cells()
    queries = []
    for k in range(n):
        o = pool[rng.randrange(len(pool))]
        d = pool[rng.randrange(len(pool))]
        if o != d:
            queries.append(Query(o, d, spacing * k, query_id=k))
    return queries


def run(planner, queries):
    total = 0
    for q in queries:
        total += planner.plan(q).duration
    return {
        "sum_durations": total,
        "tc_ms": planner.timers.total * 1000,
        "fallbacks": planner.stats.fallbacks,
        "segments": planner.n_segments,
    }


def main() -> None:
    warehouse = datasets.w1(scale=0.35)
    queries = make_queries(warehouse)
    print(f"{warehouse.name}: {warehouse.shape}, {len(queries)} queries\n")

    variants = [
        ("slope index, columnar (default)", dict()),
        ("slope index, object layout", dict(store_layout="object")),
        ("naive store (V-B)", dict(store="naive")),
        ("plain Dijkstra", dict(use_heuristic=False)),
        ("exact intra", dict(intra_exact=True)),
        ("exact + backward", dict(intra_exact=True, intra_backward=True)),
    ]
    rows = []
    for label, kwargs in variants:
        stats = run(SRPPlanner(warehouse, **kwargs), queries)
        rows.append(
            [
                label,
                f"{stats['tc_ms']:.0f}",
                stats["sum_durations"],
                stats["fallbacks"],
            ]
        )
    print(
        format_table(
            ["variant", "TC (ms)", "sum durations", "A* fallbacks"],
            rows,
            title="SRP ablation axes on one identical query stream",
        )
    )
    print("\nReading guide: route quality (sum durations) is nearly flat —")
    print("the restrictions cost little; the axes trade planning time for")
    print("the rare cases the greedy search cannot thread.")


if __name__ == "__main__":
    main()
