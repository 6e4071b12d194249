"""Shared infrastructure of the benchmark harness.

Every benchmark file regenerates one table or figure of the paper.
Absolute numbers differ from the paper (pure-Python planners on scaled
traces versus Java on full traces — see EXPERIMENTS.md), but the rows
and series printed here have the same shape as the published ones.

Scaling knobs (environment variables):

* ``REPRO_BENCH_SCALE``  — linear warehouse scale factor (default 1.0,
  i.e. the full Table II dimensions; set e.g. 0.3 on slow machines);
* ``REPRO_BENCH_TASKS``  — tasks per simulated day (default 200; the
  paper runs 27k-135k tasks/day, far beyond pure-Python planners);
* ``REPRO_BENCH_DAY``    — span of release times (default 1500 s).

Day simulations are cached per (dataset, planner) for the whole pytest
session so the TC/MC/OG artefacts reuse the same runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Tuple

import pytest

from repro import (
    ACPPlanner,
    RPPlanner,
    SAPPlanner,
    SRPPlanner,
    TaskTraceSpec,
    TWPPlanner,
    datasets,
    generate_tasks,
    run_day,
)
from repro.simulation import SimulationResult

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
BENCH_TASKS = int(os.environ.get("REPRO_BENCH_TASKS", "200"))
BENCH_DAY = int(os.environ.get("REPRO_BENCH_DAY", "1500"))

PLANNERS = {
    "SRP": SRPPlanner,
    "SAP": SAPPlanner,
    "RP": RPPlanner,
    "TWP": TWPPlanner,
    "ACP": ACPPlanner,
}
DATASETS = ("W-1", "W-2", "W-3")


@dataclass
class DayRun:
    """One cached simulated day."""

    dataset: str
    planner: str
    result: SimulationResult


class DayRunCache:
    """Session-wide cache of simulated days."""

    def __init__(self) -> None:
        self._runs: Dict[Tuple[str, str, int], DayRun] = {}

    def get(self, dataset: str, planner: str, seed: int = 97) -> DayRun:
        key = (dataset, planner, seed)
        if key not in self._runs:
            warehouse = datasets.dataset_by_name(dataset, scale=BENCH_SCALE)
            tasks = generate_tasks(
                warehouse,
                TaskTraceSpec(n_tasks=BENCH_TASKS, day_length=BENCH_DAY, seed=seed),
            )
            result = run_day(
                warehouse,
                PLANNERS[planner](warehouse),
                tasks,
                snapshot_every=0.02,
                measure_memory=True,
                validate=True,
            )
            assert not result.conflicts, f"{planner} day on {dataset} had conflicts"
            self._runs[key] = DayRun(dataset, planner, result)
        return self._runs[key]


@pytest.fixture(scope="session")
def day_runs() -> DayRunCache:
    return DayRunCache()


@pytest.fixture(scope="session")
def bench_header() -> str:
    return (
        f"[bench config] scale={BENCH_SCALE} tasks/day={BENCH_TASKS} "
        f"day_length={BENCH_DAY}s (set REPRO_BENCH_* env vars to change)"
    )
