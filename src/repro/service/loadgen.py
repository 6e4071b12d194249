"""Seeded open-loop load generation for the planning service.

Arrivals are *open-loop*: the schedule fixes every request's arrival
time up front (Poisson-like gaps from a seeded RNG), and requests keep
arriving whether or not the service keeps up — which is exactly what
makes admission control and shedding measurable.  Two drivers share
one schedule format:

* :func:`drive_simulated` — fully deterministic, wall-clock-free drive
  of a :class:`~repro.service.core.ServiceCore` under a simulated
  clock with a fixed per-query planning cost.  The determinism tests
  run it twice and compare everything.
* :func:`run_against_server` — a pipelining socket client for a live
  :class:`~repro.service.server.ServiceServer`; the CI smoke uses it.

Real time and floats are allowed here (this module is outside
srplint's SRP003 determinism scope); everything handed to the core is
already reduced to integer milliseconds.
"""

from __future__ import annotations

import argparse
import json
import random
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.planner_base import Planner
from repro.service.core import Reply, Request, ServiceCore
from repro.service.protocol import ProtocolError, parse_reply_line
from repro.types import Query, Route
from repro.warehouse.matrix import Warehouse


@dataclass
class LoadSpec:
    """Shape of one generated load: volume, rate, mix and deadlines."""

    n_queries: int = 200
    #: mean offered arrival rate (requests per wall second)
    rate_qps: float = 100.0
    seed: int = 7
    #: span of the generated *release times* (route-time seconds) —
    #: decoupled from arrival wall time, like a warehouse queueing work
    #: slightly ahead of execution
    day_length: int = 800
    #: per-request deadline relative to arrival (ms); 0 = none
    deadline_ms: int = 0
    #: fraction of endpoints drawn from a small hot set (pickers/racks)
    hot_fraction: float = 0.5


@dataclass
class ScheduledQuery:
    """One arrival of the open-loop schedule."""

    request_id: int
    arrival_ms: int
    query: Query
    deadline_ms: int = 0


def make_schedule(warehouse: Warehouse, spec: LoadSpec) -> List[ScheduledQuery]:
    """A seeded open-loop arrival schedule over ``warehouse``.

    Gaps between arrivals are exponential (Poisson process) at
    ``spec.rate_qps``; origins/destinations mix a hot set with uniform
    floor traffic like the hot-path benchmark; release times advance
    across ``spec.day_length`` so route-time congestion stays realistic
    regardless of the wall arrival rate.
    """
    rng = random.Random(spec.seed)
    free = warehouse.free_cells()
    hot = rng.sample(free, max(4, len(free) // 50))
    schedule: List[ScheduledQuery] = []
    arrival = 0.0
    release = 0
    for k in range(spec.n_queries):
        arrival += rng.expovariate(spec.rate_qps) * 1000.0
        release += rng.randint(0, max(1, 2 * spec.day_length // max(1, spec.n_queries)))
        pool_o = hot if rng.random() < spec.hot_fraction else free
        pool_d = hot if rng.random() < spec.hot_fraction else free
        origin = rng.choice(pool_o)
        destination = rng.choice(pool_d)
        if origin == destination:
            destination = rng.choice(free)
        schedule.append(
            ScheduledQuery(
                k,
                int(arrival),
                Query(origin, destination, release, query_id=k),
                spec.deadline_ms,
            )
        )
    return schedule


def _request_of(item: ScheduledQuery, arrival_ms: int) -> Request:
    deadline = arrival_ms + item.deadline_ms if item.deadline_ms > 0 else 0
    return Request(item.request_id, item.query, arrival_ms, deadline)


# ----------------------------------------------------------------------
# Offline drivers
# ----------------------------------------------------------------------
def drive_simulated(
    core: ServiceCore,
    schedule: List[ScheduledQuery],
    cost_ms: int = 5,
    prune_every: int = 512,
) -> List[Tuple[Request, Reply]]:
    """Drive a core through a schedule on a simulated clock.

    Every processed request advances the clock by exactly ``cost_ms``
    simulated milliseconds; arrivals are admitted the moment the clock
    passes them.  No wall clock is read anywhere, so two drives of the
    same schedule produce identical replies, telemetry and traces —
    the determinism property of the acceptance criteria.
    """
    results: List[Tuple[Request, Reply]] = []
    now = 0
    i = 0
    last_prune = 0

    def admit_until(t: int) -> None:
        nonlocal i
        while i < len(schedule) and schedule[i].arrival_ms <= t:
            item = schedule[i]
            request = _request_of(item, item.arrival_ms)
            shed = core.submit(request, item.arrival_ms)
            if shed is not None:
                results.append((request, shed))
            i += 1

    while i < len(schedule) or core.pending():
        admit_until(now)
        if core.pending():
            pair = core.process_next(now)
            assert pair is not None
            results.append(pair)
            now += cost_ms
            release = pair[0].query.release_time
            if prune_every > 0 and release - last_prune >= prune_every:
                core.prune(release)
                last_prune = release
        elif i < len(schedule):
            now = max(now, schedule[i].arrival_ms)
    return results


# ----------------------------------------------------------------------
# Socket client
# ----------------------------------------------------------------------
@dataclass
class ClientReport:
    """Outcome of one open-loop client run against a live server."""

    n_sent: int = 0
    replies: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    status_counts: Dict[str, int] = field(default_factory=dict)
    protocol_errors: int = 0
    elapsed_s: float = 0.0
    #: round-trip wall ms per request id (send to reply)
    rtt_ms: Dict[int, int] = field(default_factory=dict)
    stats: Optional[Dict[str, Any]] = None

    @property
    def n_replies(self) -> int:
        return len(self.replies)

    def count(self, status: str) -> int:
        return self.status_counts.get(status, 0)

    def summary(self) -> Dict[str, Any]:
        rtts = sorted(self.rtt_ms.values())

        def pct(p: int) -> int:
            return rtts[min(len(rtts) - 1, (len(rtts) * p) // 100)] if rtts else 0

        return {
            "sent": self.n_sent,
            "replies": self.n_replies,
            "protocol_errors": self.protocol_errors,
            "status_counts": dict(sorted(self.status_counts.items())),
            "elapsed_s": round(self.elapsed_s, 3),
            "rtt_p50_ms": pct(50),
            "rtt_p95_ms": pct(95),
            "rtt_p99_ms": pct(99),
        }


def run_against_server(
    host: str,
    port: int,
    schedule: List[ScheduledQuery],
    timeout_s: float = 60.0,
    collect_stats: bool = True,
) -> ClientReport:
    """Open-loop client: send at schedule times, collect replies by id.

    Requests are pipelined on one connection (the server replies out of
    order); the call returns when every request was answered or
    ``timeout_s`` elapsed.
    """
    report = ClientReport()
    done = threading.Event()
    send_ms: Dict[int, int] = {}
    t0 = time.perf_counter()

    def now_ms() -> int:
        return int((time.perf_counter() - t0) * 1000)

    with socket.create_connection((host, port), timeout=timeout_s) as conn:
        conn_file = conn.makefile("rwb")

        def reader() -> None:
            expected = len(schedule)
            for raw in conn_file:
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                try:
                    obj = parse_reply_line(line)
                except ProtocolError:
                    report.protocol_errors += 1
                    continue
                if "stats" in obj:
                    report.stats = obj["stats"]
                    continue
                if "pong" in obj or obj.get("status") == "draining":
                    continue
                rid = obj.get("id")
                if not isinstance(rid, int):
                    report.protocol_errors += 1
                    continue
                report.replies[rid] = obj
                status = obj["status"]
                report.status_counts[status] = report.status_counts.get(status, 0) + 1
                if rid in send_ms:
                    report.rtt_ms[rid] = now_ms() - send_ms[rid]
                if len(report.replies) >= expected:
                    done.set()
                    if not collect_stats:
                        return

        reader_thread = threading.Thread(target=reader, daemon=True)
        reader_thread.start()

        for item in schedule:
            wait_s = item.arrival_ms / 1000.0 - (time.perf_counter() - t0)
            if wait_s > 0:
                time.sleep(wait_s)
            wire = {
                "op": "plan",
                "id": item.request_id,
                "origin": list(item.query.origin),
                "dest": list(item.query.destination),
                "release": item.query.release_time,
            }
            if item.deadline_ms > 0:
                wire["deadline_ms"] = item.deadline_ms
            send_ms[item.request_id] = now_ms()
            conn_file.write((json.dumps(wire) + "\n").encode("utf-8"))
            conn_file.flush()
            report.n_sent += 1

        done.wait(timeout_s)
        if collect_stats:
            try:
                conn_file.write(b'{"op": "stats"}\n')
                conn_file.flush()
                deadline = time.perf_counter() + min(5.0, timeout_s)
                while report.stats is None and time.perf_counter() < deadline:
                    time.sleep(0.01)
            except OSError:
                pass
    report.elapsed_s = time.perf_counter() - t0
    return report


def request_shutdown(host: str, port: int, timeout_s: float = 10.0) -> bool:
    """Send a ``shutdown`` request; True when the drain was acknowledged."""
    try:
        with socket.create_connection((host, port), timeout=timeout_s) as conn:
            conn_file = conn.makefile("rwb")
            conn_file.write(b'{"op": "shutdown"}\n')
            conn_file.flush()
            raw = conn_file.readline()
        obj = json.loads(raw.decode("utf-8"))
        return obj.get("status") == "draining"
    except (OSError, ValueError):
        return False


# ----------------------------------------------------------------------
# Self-serve smoke (used by CI)
# ----------------------------------------------------------------------
class _ThrottledPlanner:
    """Wrap a planner with a fixed wall-clock floor per ``plan()`` call.

    Pins the service's full-rung capacity to a machine-independent
    value, so a smoke's rate/queue-capacity overload (and therefore its
    shedding) does not depend on how fast the host happens to be.
    Everything else — rung methods, timers, stats — delegates to the
    wrapped planner untouched.
    """

    def __init__(self, inner: Planner, cost_ms: int) -> None:
        self._inner = inner
        self._cost_s = cost_ms / 1000.0

    def plan(self, query: Query) -> Route:
        time.sleep(self._cost_s)
        return self._inner.plan(query)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


def _build_planner(
    warehouse: Warehouse, plan_cost_ms: int = 0, workers: int = 0
) -> Planner:
    from repro.core.planner import SRPPlanner

    planner: Planner
    if workers >= 1:
        from repro.service.sharding import ShardedPlanner

        planner = ShardedPlanner(warehouse, workers=workers, mode="process")
    else:
        planner = SRPPlanner(warehouse)
    if plan_cost_ms > 0:
        planner = _ThrottledPlanner(planner, plan_cost_ms)  # type: ignore[assignment]
    return planner


def smoke(args: argparse.Namespace) -> int:
    """Start an in-process server, drive it open-loop, verify the drain.

    The CI contract: zero protocol errors, at least one shed when
    ``--expect-shed`` (the rate/queue-capacity combination must force
    overload), every request answered, at least one answered with a
    route (``ok`` or ``degraded``; a service that sheds or fails
    everything replies to every request too), and a clean drain on
    shutdown.
    """
    from repro.service.core import ServiceConfig
    from repro.service.server import ServiceServer
    from repro.warehouse import datasets

    warehouse = datasets.dataset_by_name(args.dataset, scale=args.scale)
    planner = _build_planner(
        warehouse, plan_cost_ms=args.plan_cost_ms, workers=args.workers
    )
    config = ServiceConfig(
        queue_capacity=args.queue_cap,
        default_deadline_ms=args.deadline_ms,
    )
    server = ServiceServer(planner, config, port=args.port).start()
    spec = LoadSpec(
        n_queries=args.queries,
        rate_qps=args.rate,
        seed=args.seed,
        deadline_ms=args.deadline_ms,
    )
    schedule = make_schedule(warehouse, spec)
    report = run_against_server("127.0.0.1", server.port, schedule,
                                timeout_s=args.timeout)
    acked = request_shutdown("127.0.0.1", server.port)
    clean = server.stop(timeout=args.timeout)

    summary = report.summary()
    summary["drain_acknowledged"] = acked
    summary["drain_clean"] = clean
    summary["trace_entries"] = len(server.core.trace)
    router_stats = getattr(planner, "router_stats", None)
    if callable(router_stats):
        summary["router"] = router_stats()
        summary["workers_alive_after_stop"] = planner.workers_alive()
    print(json.dumps(summary, indent=2, sort_keys=True))

    failures = []
    if report.protocol_errors:
        failures.append(f"{report.protocol_errors} protocol error(s)")
    if report.n_replies < report.n_sent:
        failures.append(f"only {report.n_replies}/{report.n_sent} requests answered")
    if report.count("ok") + report.count("degraded") == 0:
        failures.append("no request was answered with a route")
    if args.expect_shed and report.count("shed") == 0:
        failures.append("no request was shed despite the overload rate")
    if not (acked and clean):
        failures.append("drain did not complete cleanly")
    if args.workers >= 2:
        # The multi-worker contract: cross-region traffic actually
        # exercised the boundary 2PC, and the drain reaped every worker.
        if summary.get("router", {}).get("cross", 0) == 0:
            failures.append("no cross-region query was routed")
        if summary.get("workers_alive_after_stop", 0) != 0:
            failures.append("worker process(es) survived the drain")
    for failure in failures:
        print(f"SMOKE FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.loadgen",
        description="Open-loop load generator / smoke driver for the planning service.",
    )
    parser.add_argument("--dataset", default="W-1", choices=("W-1", "W-2", "W-3"))
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--queries", type=int, default=200)
    parser.add_argument("--rate", type=float, default=200.0,
                        help="offered arrival rate (requests/s)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--deadline-ms", type=int, default=150)
    parser.add_argument("--queue-cap", type=int, default=8,
                        help="admission queue capacity of the self-served instance")
    parser.add_argument("--port", type=int, default=0,
                        help="loopback port for --self-serve (0 = pick free)")
    parser.add_argument("--timeout", type=float, default=120.0)
    parser.add_argument("--plan-cost-ms", type=int, default=0,
                        help="self-serve only: floor each full plan() at this "
                             "many wall-clock ms, pinning the capacity so "
                             "--expect-shed is machine-independent")
    parser.add_argument("--workers", type=int, default=0,
                        help="self-serve only: run a region-sharded planner "
                             "with this many worker processes (0 = classic "
                             "single-planner service)")
    parser.add_argument("--self-serve", action="store_true",
                        help="start an in-process server and drive it (CI smoke)")
    parser.add_argument("--expect-shed", action="store_true",
                        help="fail unless the run shed at least one request")
    parser.add_argument("--host", default="127.0.0.1")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.self_serve:
        return smoke(args)
    from repro.warehouse import datasets

    warehouse = datasets.dataset_by_name(args.dataset, scale=args.scale)
    spec = LoadSpec(n_queries=args.queries, rate_qps=args.rate, seed=args.seed,
                    deadline_ms=args.deadline_ms)
    schedule = make_schedule(warehouse, spec)
    report = run_against_server(args.host, args.port, schedule,
                                timeout_s=args.timeout)
    print(json.dumps(report.summary(), indent=2, sort_keys=True))
    return 0 if report.protocol_errors == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
