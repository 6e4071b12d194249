#!/usr/bin/env python
"""Reproducible hot-path benchmark: the Fig. 16-style online query stream.

Times a deterministic stream of CARP queries planned online (each route
commits its traffic before the next query arrives, exactly like the
paper's evaluation) on the standard Table II layouts, twice with fresh
planners, and verifies that both runs produce **bit-for-bit identical
routes** (a determinism check).  The two runs keep the record's
historical ``cached``/``uncached`` field names; the planner no longer
has a cache, so their ratio only measures run-to-run noise.  Appends
a machine-readable record to ``BENCH_hotpath.json`` at the repo root so
the repo accumulates a perf trajectory across PRs.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py            # full run
    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick    # CI smoke

The script also runs unchanged against older checkouts of this repo
(``PYTHONPATH=<old>/src python benchmarks/bench_hotpath.py --no-append``):
planner kwargs unknown to the old code are dropped, which is how
before/after speedups versus the seed are measured.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import List, Optional, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)
try:  # keep an explicitly PYTHONPATH-ed checkout (e.g. the seed) in charge
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro import Query, SRPPlanner, datasets  # noqa: E402
from repro.exceptions import PlanningFailedError  # noqa: E402

try:  # faulted-day leg; absent on pre-fault checkouts (PR <= 2)
    from repro.simulation import FaultPlan, Simulation  # noqa: E402
    from repro.warehouse import TaskTraceSpec, generate_tasks  # noqa: E402
except ImportError:  # pragma: no cover - only on old checkouts
    FaultPlan = Simulation = TaskTraceSpec = generate_tasks = None

try:  # charging leg; absent on pre-battery checkouts (PR <= 9)
    from repro.simulation import BatterySpec, place_stations  # noqa: E402
except ImportError:  # pragma: no cover - only on old checkouts
    BatterySpec = place_stations = None

from benchmarks.conftest import append_bench_record, current_commit  # noqa: E402


def _counter(obj, name: str) -> int:
    """Read an instrumentation counter, tolerating older checkouts."""
    return int(getattr(obj, name, 0) or 0)


def cache_counters(planner: SRPPlanner) -> dict:
    """The per-layer cache counters of one planned stream/day.

    All reads go through ``getattr`` so the benchmark still runs against
    checkouts that predate a given cache layer (the counter simply
    reports zero there).
    """
    stats = planner.stats
    counters = {
        "cache_hit_rate": getattr(stats, "cache_hit_rate", 0.0),
        "cache_hits": _counter(stats, "cache_hits"),
        "cache_negative_hits": _counter(stats, "cache_negative_hits"),
        "cache_misses": _counter(stats, "cache_misses"),
        "window_hits": _counter(stats, "window_hits"),
        "shift_hits": _counter(stats, "shift_hits"),
        "band_skips": _counter(stats, "band_skips"),
        "crossing_hits": _counter(stats, "crossing_hits"),
        "crossing_misses": _counter(stats, "crossing_misses"),
    }
    maps = getattr(planner, "distance_maps", None)
    if maps is not None:
        counters["distance_maps"] = {
            "hits": _counter(maps, "hits"),
            "misses": _counter(maps, "misses"),
            "evictions": _counter(maps, "evictions"),
            "field_builds": _counter(maps, "field_builds"),
        }
    return counters


def make_queries(warehouse, n: int, day_length: int, seed: int) -> List[Query]:
    """A deterministic Fig. 16-style stream of ``n`` online queries.

    Mimics warehouse traffic shape: a minority of *hot* cells (pickers,
    popular racks) appear in many queries while the rest of the floor is
    visited uniformly, and release times spread across the day.
    """
    rng = random.Random(seed)
    free = warehouse.free_cells()
    hot = rng.sample(free, max(4, len(free) // 50))
    queries = []
    release = 0
    for k in range(n):
        release += rng.randint(0, max(1, 2 * day_length // max(1, n)))
        pool_o = hot if rng.random() < 0.5 else free
        pool_d = hot if rng.random() < 0.5 else free
        origin = rng.choice(pool_o)
        destination = rng.choice(pool_d)
        if origin == destination:
            destination = rng.choice(free)
        queries.append(Query(origin, destination, release, query_id=k))
    return queries


def make_planner(warehouse, store_layout: Optional[str] = None) -> SRPPlanner:
    """Build an SRP planner, tolerating older code without ``store_layout``."""
    if store_layout is None:
        return SRPPlanner(warehouse)
    try:
        return SRPPlanner(warehouse, store_layout=store_layout)
    except TypeError:  # older checkout without the layout kwarg
        return SRPPlanner(warehouse)


def time_breakdown(planner: SRPPlanner) -> dict:
    """Per-layer seconds of one planned stream (zeros on old checkouts).

    ``store_scan`` is the intra-strip share that did real store work;
    ``cache_s`` reads 0 on checkouts without a plan cache.
    """
    stats = planner.stats
    intra = float(getattr(stats, "intra_time", 0.0))
    cache_t = float(getattr(stats, "cache_time", 0.0))
    return {
        "store_scan_s": max(0.0, intra - cache_t),
        "cache_s": cache_t,
        "dijkstra_s": float(getattr(stats, "inter_time", 0.0)),
        "conversion_s": float(getattr(stats, "conversion_time", 0.0)),
    }


def memory_footprint(planner: SRPPlanner) -> dict:
    """Planning-state bytes, overall and per strip with committed traffic."""
    try:
        from repro.analysis.sizeof import deep_sizeof
    except ImportError:  # pragma: no cover - only on old checkouts
        return {}
    stores = getattr(planner, "stores", None)
    if stores is None or not hasattr(planner, "planning_state"):
        return {}
    active = sum(1 for _ in stores.active_items())
    total = deep_sizeof(planner.planning_state())
    return {
        "state_bytes": total,
        "active_strips": active,
        "bytes_per_strip": total // max(1, active),
    }


def run_stream(
    warehouse,
    queries: List[Query],
    prune_every: int = 512,
    store_layout: Optional[str] = None,
) -> Tuple[List[Optional[Tuple[int, tuple]]], float, float, SRPPlanner]:
    """Plan the stream online.

    Returns ``(route fingerprints, wall seconds, cpu seconds, planner)``.
    CPU seconds (:func:`time.process_time`) are reported alongside wall
    time because frequency throttling on busy machines skews wall-clock
    comparisons by tens of percent while CPU time stays stable.
    """
    planner = make_planner(warehouse, store_layout)
    fingerprints: List[Optional[Tuple[int, tuple]]] = []
    last_prune = 0
    started = time.perf_counter()
    cpu_started = time.process_time()
    for query in queries:
        if prune_every > 0 and query.release_time - last_prune >= prune_every:
            planner.prune(query.release_time)
            last_prune = query.release_time
        try:
            route = planner.plan(query)
        except PlanningFailedError:
            fingerprints.append(None)
            continue
        fingerprints.append((route.start_time, tuple(route.grids)))
    cpu_elapsed = time.process_time() - cpu_started
    elapsed = time.perf_counter() - started
    return fingerprints, elapsed, cpu_elapsed, planner


def supports_joint_recovery() -> bool:
    """True when this checkout has the joint conflict-cluster recovery."""
    try:
        import inspect

        return "recovery" in inspect.signature(Simulation.__init__).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic old checkout
        return False


def run_faulted_day(
    warehouse, tasks, faults,
    store_layout: Optional[str] = None, recovery: str = "serial",
):
    """One disturbed simulated day; returns route fingerprints + timings."""
    planner = make_planner(warehouse, store_layout)
    kwargs = dict(validate=False, measure_memory=False, faults=faults)
    if recovery != "serial":
        kwargs["recovery"] = recovery
    sim = Simulation(warehouse, planner, tasks, **kwargs)
    started = time.perf_counter()
    cpu_started = time.process_time()
    result = sim.run()
    cpu_elapsed = time.process_time() - cpu_started
    elapsed = time.perf_counter() - started
    routes = {q: (r.start_time, tuple(r.grids)) for q, r in sim._routes.items()}
    return routes, elapsed, cpu_elapsed, planner, result


def bench_faulted(warehouse, n_tasks: int, day_length: int, seed: int,
                  repeats: int = 1,
                  store_layout: Optional[str] = None,
                  recovery: str = "serial") -> Optional[dict]:
    """Two runs of a seeded faulted day with fresh planners.

    The interesting gate here is bit-identity *across decommit/replan*:
    the second run must reproduce the first run's routes exactly even
    when stalls and blockages force mid-route decommits.  With
    ``recovery="joint"`` the same day runs through the conflict-cluster
    recovery (and a fault plan including slowdowns/closures), adding the
    cluster counters to the record.
    """
    if Simulation is None or FaultPlan is None:
        return None  # old checkout without the fault subsystem
    if recovery != "serial" and not supports_joint_recovery():
        return None  # old checkout without the joint recovery subsystem
    tasks = generate_tasks(
        warehouse, TaskTraceSpec(n_tasks=n_tasks, day_length=day_length, seed=seed)
    )
    fault_kwargs = dict(
        n_robots=len(warehouse.robot_homes),
        day_length=day_length,
        n_stalls=max(2, n_tasks // 10),
        n_blockages=max(1, n_tasks // 20),
        seed=seed + 1,
    )
    if recovery != "serial":
        # The joint leg also exercises the richer disturbance physics.
        fault_kwargs["n_slowdowns"] = max(1, n_tasks // 20)
        fault_kwargs["n_closures"] = max(1, n_tasks // 40)
    faults = FaultPlan.generate(warehouse, **fault_kwargs)
    secs_off = secs_on = cpu_off = cpu_on = None
    routes_off = routes_on = None
    planner = result = None
    for _ in range(max(1, repeats)):
        routes_off, elapsed, cpu, _, _ = run_faulted_day(
            warehouse, tasks, faults,
            store_layout=store_layout, recovery=recovery,
        )
        if secs_off is None or elapsed < secs_off:
            secs_off = elapsed
        if cpu_off is None or cpu < cpu_off:
            cpu_off = cpu
        routes_on, elapsed, cpu, planner, result = run_faulted_day(
            warehouse, tasks, faults,
            store_layout=store_layout, recovery=recovery,
        )
        if secs_on is None or elapsed < secs_on:
            secs_on = elapsed
        if cpu_on is None or cpu < cpu_on:
            cpu_on = cpu
    sub = {
        "n_tasks": n_tasks,
        "n_stalls": len(faults.stalls),
        "n_blockages": len(faults.blockages),
        "n_slowdowns": len(getattr(faults, "slowdowns", ())),
        "n_closures": len(getattr(faults, "closures", ())),
        "fault_seed": seed + 1,
        "recovery": getattr(result, "recovery", "serial"),
        "speedup_cache": secs_off / secs_on if secs_on else 0.0,
        "speedup_cache_cpu": cpu_off / cpu_on if cpu_on else 0.0,
        "faults_injected": result.faults_injected,
        "replans": result.replans,
        "recovery_failures": result.recovery_failures,
        "replan_attempts": _counter(result, "replan_attempts"),
        "decommitted_segments": _counter(result, "decommitted_segments"),
        "recovery_clusters": _counter(result, "recovery_clusters"),
        "max_cluster_size": _counter(result, "max_cluster_size"),
        "cluster_robots": _counter(result, "cluster_robots"),
        "recovery_cbs": _counter(result, "recovery_cbs"),
        "recovery_serial": _counter(result, "recovery_serial"),
        "slowdown_stretches": _counter(result, "slowdown_stretches"),
        "closure_cells": _counter(result, "closure_cells"),
        "routes_identical": routes_off == routes_on,
    }
    sub.update(cache_counters(planner))
    return sub


def run_charging_day(warehouse, tasks, battery, stations,
                     store_layout: Optional[str] = None):
    """One battery-constrained day; returns route fingerprints + timings."""
    planner = make_planner(warehouse, store_layout)
    sim = Simulation(
        warehouse, planner, tasks, validate=False, measure_memory=False,
        battery=battery, stations=stations,
    )
    started = time.perf_counter()
    cpu_started = time.process_time()
    result = sim.run()
    cpu_elapsed = time.process_time() - cpu_started
    elapsed = time.perf_counter() - started
    routes = {q: (r.start_time, tuple(r.grids)) for q, r in sim._routes.items()}
    return routes, elapsed, cpu_elapsed, planner, result


def bench_charging(warehouse, n_tasks: int, day_length: int, seed: int,
                   store_layout: Optional[str] = None) -> Optional[dict]:
    """Two runs of a seeded battery-constrained day with fresh planners.

    The battery axis closes the loop between routes and the planner's
    inputs (routes drain batteries, low batteries trigger charge-trip
    queries through the same planner), so the bit-identity gate here
    covers the reservation scheduler and the charge-trip legs too.
    Stranded robots are reported so the regression gate can flag a
    provisioning change; the day is sized to keep them at zero.
    """
    if Simulation is None or BatterySpec is None:
        return None  # old checkout without the battery subsystem
    tasks = generate_tasks(
        warehouse, TaskTraceSpec(n_tasks=n_tasks, day_length=day_length, seed=seed)
    )
    # Half-capacity low threshold: a robot taking a three-stage task
    # just above it must still finish without stranding.
    capacity = 1200
    battery = BatterySpec(
        capacity=capacity,
        low_threshold=capacity // 2,
        critical_threshold=capacity // 5,
    )
    stations = place_stations(warehouse, 2)
    routes_off, secs_off, cpu_off, _, _ = run_charging_day(
        warehouse, tasks, battery, stations,
        store_layout=store_layout,
    )
    routes_on, secs_on, cpu_on, planner, result = run_charging_day(
        warehouse, tasks, battery, stations,
        store_layout=store_layout,
    )
    sub = {
        "n_tasks": n_tasks,
        "battery_capacity": capacity,
        "n_stations": len(stations),
        "speedup_cache": secs_off / secs_on if secs_on else 0.0,
        "speedup_cache_cpu": cpu_off / cpu_on if cpu_on else 0.0,
        "charge_trips": _counter(result, "charge_trips"),
        "charge_aborts": _counter(result, "charge_aborts"),
        "charge_queue_wait": _counter(result, "charge_queue_wait"),
        "stranded_robots": _counter(result, "stranded_robots"),
        "energy_drained": _counter(result, "energy_drained"),
        "completed_tasks": result.completed_tasks,
        "failed_tasks": result.failed_tasks,
        "routes_identical": routes_off == routes_on,
    }
    sub.update(cache_counters(planner))
    return sub


def bench_layout(
    layout: str,
    scale: float,
    n_queries: int,
    day_length: int,
    seed: int,
    repeats: int = 3,
    store_layout: Optional[str] = None,
):
    warehouse = datasets.dataset_by_name(layout, scale=scale)
    queries = make_queries(warehouse, n_queries, day_length, seed)

    # Interleave the two configurations and keep the best time of each
    # (timeit-style): CPU frequency drift on busy machines easily skews
    # a single back-to-back pair by tens of percent.
    secs_off = secs_on = cpu_off = cpu_on = None
    routes_off = routes_on = None
    planner = planner_off = None
    for _ in range(max(1, repeats)):
        routes_off, elapsed, cpu, planner_off = run_stream(
            warehouse, queries, store_layout=store_layout
        )
        if secs_off is None or elapsed < secs_off:
            secs_off = elapsed
        if cpu_off is None or cpu < cpu_off:
            cpu_off = cpu
        routes_on, elapsed, cpu, planner = run_stream(
            warehouse, queries, store_layout=store_layout
        )
        if secs_on is None or elapsed < secs_on:
            secs_on = elapsed
        if cpu_on is None or cpu < cpu_on:
            cpu_on = cpu

    identical = routes_off == routes_on
    record = {
        "commit": current_commit(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "layout": layout,
        "scale": scale,
        "store_layout": getattr(planner, "store_layout", "object"),
        "n_queries": len(queries),
        "day_length": day_length,
        "seed": seed,
        "repeats": max(1, repeats),
        "failed_queries": sum(r is None for r in routes_on),
        "qps_cached": len(queries) / secs_on,
        "qps_uncached": len(queries) / secs_off,
        "qps_cached_cpu": len(queries) / cpu_on if cpu_on else 0.0,
        "qps_uncached_cpu": len(queries) / cpu_off if cpu_off else 0.0,
        "speedup_cache": secs_off / secs_on if secs_on else 0.0,
        "speedup_cache_cpu": cpu_off / cpu_on if cpu_on else 0.0,
        "fallbacks": planner.stats.fallbacks,
        "routes_identical": identical,
    }
    record.update(cache_counters(planner))
    # Per-layer seconds of the *last* repeat each (fresh planner per
    # repeat, so these are one stream's worth, not best-of-N).
    record["time_breakdown_cached"] = time_breakdown(planner)
    record["time_breakdown_uncached"] = time_breakdown(planner_off)
    record.update(memory_footprint(planner))

    # The disturbed-day leg exercises the decommit/replan recovery path:
    # cached certificates must survive (or invalidate exactly) across
    # mid-route decommits.  Sized well below the stream so the whole
    # benchmark stays minutes, not hours.
    faulted = bench_faulted(
        warehouse,
        n_tasks=max(20, n_queries // 5),
        day_length=day_length,
        seed=seed,
        repeats=1,
        store_layout=store_layout,
    )
    if faulted is not None:
        record["faulted"] = faulted
    # The same disturbed day once more through the joint conflict-cluster
    # recovery, with slowdown and aisle-closure faults in the mix.
    faulted_joint = bench_faulted(
        warehouse,
        n_tasks=max(20, n_queries // 5),
        day_length=day_length,
        seed=seed,
        repeats=1,
        store_layout=store_layout,
        recovery="joint",
    )
    if faulted_joint is not None:
        record["faulted_joint"] = faulted_joint
    # The battery-constrained day: charge trips planned through the
    # same planner must keep cached/uncached routes bit-identical.
    charging = bench_charging(
        warehouse,
        n_tasks=max(20, n_queries // 5),
        day_length=day_length,
        seed=seed,
        store_layout=store_layout,
    )
    if charging is not None:
        record["charging"] = charging
    return record


def summary_markdown(records: List[dict]) -> str:
    """A GitHub-flavoured markdown digest for CI job summaries."""
    lines = [
        "### Hot-path benchmark",
        "",
        "| layout | store layout | speedup (cache) | hit rate | window hits |"
        " shift hits | crossing hits | dmap hits/misses | bytes/strip |"
        " routes identical | faulted day | joint recovery | charging day |",
        "|---|---|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for rec in records:
        dmaps = rec.get("distance_maps") or {}
        faulted = rec.get("faulted")
        if faulted is None:
            faulted_cell = "skipped"
        else:
            faulted_cell = "{} ({} replans, {:.2f}x)".format(
                "identical" if faulted["routes_identical"] else "**DIVERGED**",
                faulted["replans"],
                faulted["speedup_cache"],
            )
        joint = rec.get("faulted_joint")
        if joint is None:
            joint_cell = "skipped"
        else:
            joint_cell = "{} ({} clusters, {} attempts)".format(
                "identical" if joint["routes_identical"] else "**DIVERGED**",
                joint.get("recovery_clusters", 0),
                joint.get("replan_attempts", 0),
            )
        charging = rec.get("charging")
        if charging is None:
            charging_cell = "skipped"
        else:
            charging_cell = "{} ({} trips, {} stranded)".format(
                "identical" if charging["routes_identical"] else "**DIVERGED**",
                charging.get("charge_trips", 0),
                charging.get("stranded_robots", 0),
            )
        lines.append(
            "| {layout} ({scale}) | {store_layout} | {speedup:.3f}x | {rate:.1%} |"
            " {window} | {shift} | {crossing} | {dh}/{dm} | {bps} |"
            " {identical} | {faulted} | {joint} | {charging} |".format(
                layout=rec["layout"],
                scale=rec["scale"],
                store_layout=rec.get("store_layout", "object"),
                bps=rec.get("bytes_per_strip", "?"),
                speedup=rec["speedup_cache"],
                rate=rec["cache_hit_rate"],
                window=rec["window_hits"],
                shift=rec["shift_hits"],
                crossing=rec["crossing_hits"],
                dh=dmaps.get("hits", 0),
                dm=dmaps.get("misses", 0),
                identical="yes" if rec["routes_identical"] else "**NO**",
                faulted=faulted_cell,
                joint=joint_cell,
                charging=charging_cell,
            )
        )
    lines.append("")
    lines.append(
        "speedup < 1.0 means the cache cost more than it saved on this "
        "machine/scale; see docs/performance.md for how to read these numbers."
    )
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--layouts", default="W-1", help="comma-separated, e.g. W-1,W-2")
    parser.add_argument("--scale", type=float, default=0.4, help="layout scale factor")
    parser.add_argument("--queries", type=int, default=500, help="stream length")
    parser.add_argument("--day", type=int, default=800, help="release-time span (s)")
    parser.add_argument("--seed", type=int, default=97)
    parser.add_argument(
        "--store-layout",
        default=None,
        choices=("object", "columnar"),
        help="physical store layout (default: the planner's own default)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="best-of-N timing repeats (early iterations run cold — page "
        "cache, allocator warm-up — so best-of-3 often hasn't converged)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: tiny stream, no trajectory append",
    )
    parser.add_argument(
        "--no-append",
        action="store_true",
        help="do not append to BENCH_hotpath.json",
    )
    parser.add_argument(
        "--summary",
        metavar="PATH",
        default=None,
        help="also append a markdown digest to PATH "
        "(e.g. \"$GITHUB_STEP_SUMMARY\" in CI)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        args.scale = min(args.scale, 0.25)
        args.queries = min(args.queries, 60)
        args.repeats = 1
        args.no_append = True

    ok = True
    records = []
    for layout in args.layouts.split(","):
        layout = layout.strip()
        record = bench_layout(
            layout, args.scale, args.queries, args.day, args.seed, args.repeats,
            store_layout=args.store_layout,
        )
        records.append(record)
        print(json.dumps(record, indent=2, sort_keys=True))
        if not record["routes_identical"]:
            print(f"ERROR: {layout}: cached routes differ from uncached ones", file=sys.stderr)
            ok = False
        faulted = record.get("faulted")
        if faulted is not None and not faulted["routes_identical"]:
            print(
                f"ERROR: {layout}: cached routes diverged on the faulted day",
                file=sys.stderr,
            )
            ok = False
        joint = record.get("faulted_joint")
        if joint is not None and not joint["routes_identical"]:
            print(
                f"ERROR: {layout}: cached routes diverged on the "
                "joint-recovery faulted day",
                file=sys.stderr,
            )
            ok = False
        charging = record.get("charging")
        if charging is not None and not charging["routes_identical"]:
            print(
                f"ERROR: {layout}: cached routes diverged on the "
                "battery-constrained day",
                file=sys.stderr,
            )
            ok = False
        if not args.no_append:
            path = append_bench_record(record)
            print(f"appended record to {path}")
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as handle:
            handle.write(summary_markdown(records))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
