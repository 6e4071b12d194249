"""Built-in srplint rules.

Adding a rule: create ``srpNNN_<slug>.py`` exporting a
:class:`srplint.engine.Rule` subclass (or
:class:`srplint.engine.ProjectRule` for whole-program analyses), import
it here, and append it to ``ALL_RULES`` — the CLI, pragma machinery,
and fixture-test harness pick it up automatically.  Codes of retired
rules (SRP001, SRP005) are never reused.  See
``docs/static-analysis.md``.
"""

from srplint.rules.srp002_int_arithmetic import SRP002IntArithmetic
from srplint.rules.srp003_determinism import SRP003Determinism
from srplint.rules.srp004_diagnostics import SRP004Diagnostics
from srplint.rules.srp006_integer_dtypes import SRP006IntegerDtypes
from srplint.rules.srp007_transitive_determinism import (
    SRP007TransitiveDeterminism,
)
from srplint.rules.srp008_pairing import SRP008AcquireReleasePairing
from srplint.rules.srp009_thread_shared import SRP009ThreadSharedState
from srplint.rules.srp010_protocol import SRP010ProtocolExhaustiveness

ALL_RULES = [
    SRP002IntArithmetic,
    SRP003Determinism,
    SRP004Diagnostics,
    SRP006IntegerDtypes,
    SRP007TransitiveDeterminism,
    SRP008AcquireReleasePairing,
    SRP009ThreadSharedState,
    SRP010ProtocolExhaustiveness,
]

__all__ = [
    "ALL_RULES",
    "SRP002IntArithmetic",
    "SRP003Determinism",
    "SRP004Diagnostics",
    "SRP006IntegerDtypes",
    "SRP007TransitiveDeterminism",
    "SRP008AcquireReleasePairing",
    "SRP009ThreadSharedState",
    "SRP010ProtocolExhaustiveness",
]
