"""srplint — AST-level invariant checker for the SRP reproduction.

The SRP planner's exactness rests on conventions that ordinary linters
cannot see: core arithmetic must stay on ints (bit-identical routes
across store layouts and replays), planning must be deterministic, and
failures must carry diagnostics.  srplint encodes each of those invariants as a
pluggable rule over the stdlib ``ast`` module — no third-party runtime
dependencies.

Rules
-----
SRP002  no float literals / true division / ``math.*`` float ops in
        ``core/`` and ``geometry/`` arithmetic
SRP003  no wall-clock or unseeded nondeterminism in planning code
SRP004  ``PlanningFailedError`` / ``SimulationError`` raises must attach
        diagnostics context
SRP006  geometry arrays must stay integer-dtyped

Whole-program rules SRP007–SRP010 run under ``--project``.  SRP001
(store version bumps) and SRP005 (versioned plan-cache keys) were
retired together with the plan cache they protected.

Run ``python -m srplint src/`` (with ``tools`` on ``PYTHONPATH``) or
``python tools/srplint src/``.  See ``docs/static-analysis.md``.
"""

from srplint.engine import Finding, Rule, default_rules, iter_python_files, run_path, run_source

__version__ = "0.1.0"

__all__ = [
    "Finding",
    "Rule",
    "default_rules",
    "iter_python_files",
    "run_path",
    "run_source",
    "__version__",
]
