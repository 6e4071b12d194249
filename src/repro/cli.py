"""Command-line interface: inspect warehouses, plan routes, run days.

Usage (also available as ``python -m repro.cli``)::

    repro-warehouse info --dataset W-1
    repro-warehouse plan --dataset W-1 --origin 0,0 --dest 200,90
    repro-warehouse simulate --dataset W-2 --scale 0.3 --tasks 80 \
        --planner SRP --seed 7
    repro-warehouse simulate --dataset W-1 --scale 0.5 --tasks 120 \
        --stalls 20 --blockages 10 --slowdowns 6 --closures 3 \
        --fault-seed 5 --recovery joint --validate
    repro-warehouse serve --dataset W-1 --scale 0.3 --port 7717 \
        --deadline-ms 100 --trace session.jsonl
    repro-warehouse load --port 7717 --queries 500 --rate 150
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import Optional

from repro import (
    Query,
    SRPPlanner,
    TaskTraceSpec,
    build_strip_graph,
    datasets,
    generate_tasks,
    make_baseline,
    run_day,
)
from repro.analysis import format_table
from repro.exceptions import (
    CollisionError,
    InvalidQueryError,
    PlanningFailedError,
    SimulationError,
)
from repro.simulation import FaultPlan
from repro.warehouse import load_warehouse

PLANNER_NAMES = ("SRP", "SAP", "RP", "TWP", "ACP")


def _make_planner(
    name: str,
    warehouse,
    store: str = "slope",
    exact: bool = False,
    store_layout: str | None = None,
):
    if name == "SRP":
        return SRPPlanner(
            warehouse, store=store, store_layout=store_layout, intra_exact=exact
        )
    return make_baseline(name, warehouse)


def _load_warehouse(args):
    if args.layout:
        return load_warehouse(args.layout)
    return datasets.dataset_by_name(args.dataset, scale=args.scale)


def _parse_cell(text: str):
    try:
        i, j = text.split(",")
        return (int(i), int(j))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'row,col', got {text!r}")


def cmd_info(args) -> int:
    warehouse = _load_warehouse(args)
    graph = build_strip_graph(warehouse)
    stats = graph.reduction_stats()
    print(
        format_table(
            ["property", "value"],
            [
                ["name", warehouse.name or "(custom)"],
                ["size (H x W)", f"{warehouse.height} x {warehouse.width}"],
                ["rack cells", warehouse.n_racks],
                ["pickers", len(warehouse.pickers)],
                ["robot homes", len(warehouse.robot_homes)],
                ["grid vertices", stats["grid_vertices"]],
                ["grid edges", stats["grid_edges"]],
                ["strip vertices", stats["strip_vertices"]],
                ["strip edges", stats["strip_edges"]],
                ["vertex reduction", f"{stats['vertex_ratio']:.1%}"],
                ["edge reduction", f"{stats['edge_ratio']:.1%}"],
            ],
            title="warehouse summary",
        )
    )
    return 0


def _report_failure(kind: str, exc) -> int:
    """Structured one-line error report for planning/simulation failures."""
    parts = [f"error: {kind}: {exc.args[0] if exc.args else exc}"]
    if hasattr(exc, "diagnostics"):
        for key, value in exc.diagnostics().items():
            parts.append(f"  {key}: {value}")
    print("\n".join(parts), file=sys.stderr)
    return 1


def cmd_plan(args) -> int:
    warehouse = _load_warehouse(args)
    planner = _make_planner(args.planner, warehouse, args.store, args.exact, args.store_layout)
    query = Query(args.origin, args.dest, args.time)
    try:
        route = planner.plan(query)
    except PlanningFailedError as exc:
        return _report_failure("planning failed", exc)
    except InvalidQueryError as exc:
        return _report_failure("invalid query", exc)
    print(
        f"{args.planner} route {args.origin} -> {args.dest}: "
        f"{route.duration} steps, departs t={route.start_time}, "
        f"arrives t={route.finish_time}"
    )
    if args.verbose:
        print(" ".join(f"{i},{j}" for i, j in route.grids))
    return 0


def cmd_simulate(args) -> int:
    warehouse = _load_warehouse(args)
    tasks = generate_tasks(
        warehouse,
        TaskTraceSpec(n_tasks=args.tasks, day_length=args.day, seed=args.seed,
                      duty_cycle=args.duty_cycle),
    )
    battery = None
    stations = None
    if args.battery > 0:
        from repro.simulation import BatterySpec, place_stations

        try:
            # Head to a charger at half capacity: a robot picking up a
            # three-stage task just above the threshold must still
            # finish it without stranding.
            battery = BatterySpec(
                capacity=args.battery,
                charge_rate=args.charge_rate,
                low_threshold=max(1, args.battery // 2),
                critical_threshold=max(0, args.battery // 5),
            )
            stations = place_stations(warehouse, args.stations)
        except SimulationError as exc:
            return _report_failure("charging setup failed", exc)
    faults = None
    if args.stalls or args.blockages or args.slowdowns or args.closures:
        faults = FaultPlan.generate(
            warehouse,
            n_robots=len(warehouse.robot_homes),
            day_length=args.day,
            n_stalls=args.stalls,
            n_blockages=args.blockages,
            n_slowdowns=args.slowdowns,
            n_closures=args.closures,
            seed=args.fault_seed,
        )
    rows = []
    for name in args.planner.split(","):
        name = name.strip().upper()
        planner = _make_planner(name, warehouse, args.store, args.exact, args.store_layout)
        try:
            result = run_day(
                warehouse, planner, tasks, validate=args.validate, faults=faults,
                recovery=args.recovery, battery=battery, stations=stations,
            )
        except SimulationError as exc:
            return _report_failure("simulation failed", exc)
        if result.conflicts:
            first = result.conflicts[0]
            return _report_failure(
                "conflict check failed",
                CollisionError(
                    f"{name} produced {len(result.conflicts)} conflicting "
                    f"route pair(s); first: {first.kind} at {first.grid}",
                    release_time=first.time,
                    phase="validate",
                ),
            )
        if result.audit_violations:
            shown = "; ".join(str(v) for v in result.audit_violations[:3])
            return _report_failure(
                "planner-state audit failed",
                SimulationError(
                    f"{name} audit found {len(result.audit_violations)} "
                    f"violation(s): {shown}",
                    phase="audit",
                ),
            )
        if result.stranded_robots:
            # A stranded robot means the battery provisioning cannot
            # carry the workload — fail loudly so CI smoke catches it.
            return _report_failure(
                "battery provisioning failed",
                SimulationError(
                    f"{name} stranded {result.stranded_robots} robot(s) "
                    f"(capacity {args.battery}, {args.stations} stations, "
                    f"charge rate {args.charge_rate})",
                    phase="charging",
                ),
            )
        rows.append(
            {
                "planner": name,
                "og_s": result.og,
                "tc_ms": round(result.tc_seconds * 1000, 3),
                "mc_peak_kib": round((result.peak_mc_bytes or 0) / 1024),
                "completed": result.completed_tasks,
                "failed": result.failed_tasks,
                "faults": result.faults_injected,
                "replans": result.replans,
                "recovery": result.recovery,
                "replan_attempts": result.replan_attempts,
                "decommitted_segments": result.decommitted_segments,
                "recovery_clusters": result.recovery_clusters,
                "max_cluster_size": result.max_cluster_size,
                "cluster_robots": result.cluster_robots,
                "recovery_cbs": result.recovery_cbs,
                "recovery_serial": result.recovery_serial,
                "slowdown_stretches": result.slowdown_stretches,
                "closure_cells": result.closure_cells,
                "charge_trips": result.charge_trips,
                "charge_aborts": result.charge_aborts,
                "charge_queue_wait": result.charge_queue_wait,
                "stranded_robots": result.stranded_robots,
                "energy_drained": result.energy_drained,
                "charge_stations": result.charge_stations,
            }
        )
    if args.json:
        for row in rows:
            row.update(dataset=warehouse.name, tasks=args.tasks, day=args.day,
                       seed=args.seed)
            print(json.dumps(row, sort_keys=True))
        return 0
    title = f"{warehouse.name}: {args.tasks} tasks over {args.day}s"
    if faults is not None:
        title += (f", {len(faults)} faults (seed {args.fault_seed}, "
                  f"recovery={args.recovery})")
    if battery is not None:
        trips = "/".join(str(row["charge_trips"]) for row in rows)
        title += (f", battery {args.battery} ({args.stations} stations, "
                  f"{trips} trips)")
    print(
        format_table(
            ["planner", "OG (s)", "TC (ms)", "MC peak (KiB)", "done", "failed",
             "faults/replans", "attempts/decommits"],
            [
                [
                    row["planner"],
                    row["og_s"],
                    f"{row['tc_ms']:.1f}",
                    f"{row['mc_peak_kib']:.0f}",
                    row["completed"],
                    row["failed"],
                    f"{row['faults']}/{row['replans']}",
                    f"{row['replan_attempts']}/{row['decommitted_segments']}",
                ]
                for row in rows
            ],
            title=title,
        )
    )
    return 0


def cmd_serve(args) -> int:
    """Run the online planning service until SIGTERM/SIGINT or `shutdown`."""
    from repro.service import ServiceConfig, ServiceServer
    from repro.tracing import save_trace

    warehouse = _load_warehouse(args)
    if args.workers >= 1:
        if args.planner != "SRP":
            print("--workers requires the SRP planner", file=sys.stderr)
            return 2
        from repro.service import ShardedPlanner

        planner = ShardedPlanner(
            warehouse, workers=args.workers, partition=args.partition,
            planner_kwargs={
                "store": args.store,
                "store_layout": args.store_layout,
                "intra_exact": args.exact,
            },
        )
        print(f"region-sharded: {planner.shard_count} worker process(es)",
              flush=True)
    else:
        planner = _make_planner(args.planner, warehouse, args.store, args.exact,
                                args.store_layout)
    config = ServiceConfig(
        queue_capacity=args.queue_cap,
        default_deadline_ms=args.deadline_ms,
        full_budget_ms=args.full_budget_ms,
        cached_budget_ms=args.cached_budget_ms,
    )
    server = ServiceServer(
        planner,
        config,
        host=args.host,
        port=args.port,
        telemetry_log=args.telemetry_log,
        log_interval=args.log_interval,
    ).start()

    def _drain(signum, frame) -> None:
        server.request_shutdown()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    print(f"serving {warehouse.name or '(custom)'} with {args.planner} "
          f"on {args.host}:{server.port}", flush=True)
    server.drained.wait()
    clean = server.stop()
    if args.trace:
        save_trace(server.core.trace, args.trace)
        print(f"session trace ({len(server.core.trace)} entries) "
              f"saved to {args.trace}")
    snapshot = server.core.stats_snapshot()
    print(json.dumps(snapshot, sort_keys=True))
    return 0 if clean else 1


def cmd_load(args) -> int:
    """Drive a running service open-loop and print the client report."""
    from repro.service.loadgen import LoadSpec, make_schedule, run_against_server

    warehouse = _load_warehouse(args)
    spec = LoadSpec(
        n_queries=args.queries,
        rate_qps=args.rate,
        seed=args.seed,
        deadline_ms=args.deadline_ms,
    )
    schedule = make_schedule(warehouse, spec)
    report = run_against_server(args.host, args.port, schedule,
                                timeout_s=args.timeout)
    summary = report.summary()
    if report.stats is not None:
        summary["server_stats"] = report.stats
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if report.protocol_errors == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-warehouse",
        description="Strip-based collision-aware warehouse route planning (SRP).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_world_args(p):
        p.add_argument("--dataset", default="W-1", choices=("W-1", "W-2", "W-3"),
                       help="Table II replica to use (default W-1)")
        p.add_argument("--scale", type=float, default=1.0,
                       help="linear scale factor of the replica (default 1.0)")
        p.add_argument("--layout", default=None,
                       help="JSON warehouse file (overrides --dataset)")

    p_info = sub.add_parser("info", help="print warehouse and strip-graph stats")
    add_world_args(p_info)
    p_info.set_defaults(func=cmd_info)

    p_plan = sub.add_parser("plan", help="plan one route")
    add_world_args(p_plan)
    p_plan.add_argument("--origin", type=_parse_cell, required=True)
    p_plan.add_argument("--dest", type=_parse_cell, required=True)
    p_plan.add_argument("--time", type=int, default=0, help="release time")
    p_plan.add_argument("--planner", default="SRP", choices=PLANNER_NAMES)
    p_plan.add_argument("--store", default="slope", choices=("slope", "naive"),
                        help="SRP segment-store backend")
    p_plan.add_argument("--store-layout", default=None, choices=("object", "columnar"),
                        help="physical store layout (default: columnar for --store slope, object otherwise)")
    p_plan.add_argument("--exact", action="store_true",
                        help="use the exact intra-strip search (SRP only)")
    p_plan.add_argument("--verbose", action="store_true", help="print every grid")
    p_plan.set_defaults(func=cmd_plan)

    p_sim = sub.add_parser("simulate", help="run a simulated day")
    add_world_args(p_sim)
    p_sim.add_argument("--tasks", type=int, default=100)
    p_sim.add_argument("--day", type=int, default=1500, help="release span (s)")
    p_sim.add_argument("--seed", type=int, default=7)
    p_sim.add_argument("--planner", default="SRP",
                       help="comma-separated planner names (default SRP)")
    p_sim.add_argument("--store", default="slope", choices=("slope", "naive"),
                       help="SRP segment-store backend")
    p_sim.add_argument("--store-layout", default=None, choices=("object", "columnar"),
                       help="physical store layout (default: columnar for --store slope, object otherwise)")
    p_sim.add_argument("--exact", action="store_true",
                       help="use the exact intra-strip search (SRP only)")
    p_sim.add_argument("--validate", action="store_true",
                       help="verify collision-freedom of the whole day")
    p_sim.add_argument("--stalls", type=int, default=0,
                       help="inject N seeded robot-stall faults (SRP only)")
    p_sim.add_argument("--blockages", type=int, default=0,
                       help="inject N seeded transient cell blockages (SRP only)")
    p_sim.add_argument("--slowdowns", type=int, default=0,
                       help="inject N seeded robot slowdowns (SRP only)")
    p_sim.add_argument("--closures", type=int, default=0,
                       help="inject N seeded aisle-closure faults (SRP only)")
    p_sim.add_argument("--fault-seed", type=int, default=0,
                       help="RNG seed of the fault plan (default 0)")
    p_sim.add_argument("--recovery", default="serial", choices=("serial", "joint"),
                       help="fault recovery strategy: serial hold-and-replan "
                            "or joint conflict-cluster recovery (default serial)")
    p_sim.add_argument("--battery", type=int, default=0,
                       help="battery capacity in charge units; 0 (default) "
                            "disables the battery/charging axis entirely")
    p_sim.add_argument("--stations", type=int, default=2,
                       help="charging stations to place (with --battery; "
                            "default 2)")
    p_sim.add_argument("--charge-rate", type=int, default=40,
                       help="charge units restored per second docked "
                            "(with --battery; default 40)")
    p_sim.add_argument("--duty-cycle", type=float, default=1.0,
                       help="fraction of the day carrying task releases; "
                            "smaller values compress arrivals into an active "
                            "shift followed by a quiet tail (default 1.0)")
    p_sim.add_argument("--json", action="store_true",
                       help="print one JSON object per planner row instead of a table")
    p_sim.set_defaults(func=cmd_simulate)

    p_serve = sub.add_parser(
        "serve", help="run the online planning service on a TCP port"
    )
    add_world_args(p_serve)
    p_serve.add_argument("--planner", default="SRP", choices=PLANNER_NAMES)
    p_serve.add_argument("--store", default="slope",
                         choices=("slope", "naive"),
                         help="SRP segment-store backend")
    p_serve.add_argument("--store-layout", default=None, choices=("object", "columnar"),
                         help="physical store layout (default: columnar for --store slope, object otherwise)")
    p_serve.add_argument("--exact", action="store_true",
                         help="use the exact intra-strip search (SRP only)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7717,
                         help="TCP port (0 = pick a free one; default 7717)")
    p_serve.add_argument("--queue-cap", type=int, default=64,
                         help="admission queue capacity (default 64)")
    p_serve.add_argument("--deadline-ms", type=int, default=0,
                         help="default per-request deadline; 0 disables")
    p_serve.add_argument("--full-budget-ms", type=int, default=50,
                         help="min remaining budget for the full SRP rung")
    p_serve.add_argument("--cached-budget-ms", type=int, default=10,
                         help="min remaining budget for the cached rung")
    p_serve.add_argument("--workers", type=int, default=0,
                         help="region-shard the SRP planner across this many "
                              "worker processes (0 = classic in-process "
                              "planner)")
    p_serve.add_argument("--partition", default="aisle", choices=("aisle",),
                         help="region partition strategy (full-width aisle "
                              "rows; the only strategy today)")
    p_serve.add_argument("--telemetry-log", default=None,
                         help="append a JSONL telemetry snapshot periodically")
    p_serve.add_argument("--log-interval", type=float, default=5.0,
                         help="telemetry logging period in seconds")
    p_serve.add_argument("--trace", default=None,
                         help="save the session trace here on shutdown")
    p_serve.set_defaults(func=cmd_serve)

    p_load = sub.add_parser(
        "load", help="drive a running service with seeded open-loop load"
    )
    add_world_args(p_load)
    p_load.add_argument("--host", default="127.0.0.1")
    p_load.add_argument("--port", type=int, default=7717)
    p_load.add_argument("--queries", type=int, default=200)
    p_load.add_argument("--rate", type=float, default=100.0,
                        help="offered arrival rate (requests/s)")
    p_load.add_argument("--seed", type=int, default=7)
    p_load.add_argument("--deadline-ms", type=int, default=0,
                        help="per-request deadline sent on the wire; 0 = none")
    p_load.add_argument("--timeout", type=float, default=120.0)
    p_load.set_defaults(func=cmd_load)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
