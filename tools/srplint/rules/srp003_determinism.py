"""SRP003 — planning code must be deterministic and clock-free.

Invariant: given the same queries, seeds, and store state, the planner
must produce byte-identical routes on every run and machine — the
regression gates, the columnar-vs-slope store and session-replay
equivalence suites, and the fault injection replays (seeded ``random.Random``) all depend on it.

Flagged inside ``repro/core/``, ``repro/pathfinding/``,
``repro/simulation/faults.py``, the battery/charging subsystem
(``repro/simulation/energy.py`` and ``repro/simulation/charging.py``),
and the deterministic half of the planning service
(``repro/service/core.py`` and ``repro/service/telemetry.py`` — the
socket frontend ``server.py`` and the load generator ``loadgen.py``
are the designated homes for real time and stay out of scope):

* wall-clock reads: ``time.time`` / ``time.time_ns`` (``perf_counter``
  is fine — it only feeds *reporting*, never route construction),
* ``datetime.now/today/utcnow``,
* unseeded module-level randomness: bare ``random.<fn>(...)`` calls
  (instantiate ``random.Random(seed)`` instead) and
  ``np.random.<fn>`` outside ``default_rng``/``Generator``,
* ``uuid.uuid1/uuid4``, ``os.urandom``, ``secrets.*``,
* iterating a ``set`` literal or ``set(...)`` call — set order is
  hash-randomised across runs and must never feed route construction.

Deliberate uses are suppressed per line with
``# srplint: allow(SRP003) <reason>``.
"""

from __future__ import annotations

import ast
from typing import List

from srplint.engine import Finding, Rule
from srplint.hazards import (  # noqa: F401  (re-exported: rule tests import these)
    DATETIME_ATTRS,
    NP_RANDOM_OK,
    SEEDED_RANDOM_OK,
    SRP003_KINDS,
    TIME_MODULES,
    WALL_CLOCK_ATTRS,
    scan_hazards,
)


class SRP003Determinism(Rule):
    """Flag wall-clock reads and unseeded nondeterminism in planning code."""

    code = "SRP003"
    name = "determinism"
    scope = (
        "repro/core/",
        "repro/pathfinding/",
        "repro/simulation/faults.py",
        # Joint cluster recovery must replay bit-identically from the
        # fault seed: clustering, priority order, and every escalation
        # decision are pure functions of committed state.
        "repro/simulation/recovery.py",
        # The planning service keeps its scheduler and telemetry pure:
        # wall clocks are legal only in the I/O frontend (server.py)
        # and the load generator (loadgen.py).
        "repro/service/core.py",
        "repro/service/telemetry.py",
        # Region sharding must replay bit-for-bit given the same
        # partition: the partitioner, the router's attempt schedule and
        # every worker are pure functions of (warehouse, K, queries).
        "repro/service/sharding.py",
        # The battery model and charging scheduler feed route planning
        # (charge trips commit occupancy): drain arithmetic, station
        # placement, and admission times must be integer-deterministic.
        "repro/simulation/energy.py",
        "repro/simulation/charging.py",
    )

    def check(self, tree: ast.Module, path: str) -> List[Finding]:
        # Detection lives in srplint.hazards (shared with SRP007's
        # call-graph closure); this rule reports the direct, per-file
        # subset with unchanged messages.
        return [
            self.finding(path, node, message)
            for node, kind, message in scan_hazards(tree)
            if kind in SRP003_KINDS
        ]
