"""SRP006 — geometry arrays must stay integer-dtyped.

Invariant: the strip geometry batches its hot loops over flat arrays,
and every quantity in them — times, positions, slopes, intercepts — is
an exact integer.  A float-dtyped
array silently re-introduces the rounding hazards SRP002 bans from
scalar code: ``np.int64`` comparisons become approximate the moment one
operand is promoted to ``float64``, and a 2^53-second horizon quietly
loses precision.  So, inside the integer core (``repro/core/``,
``repro/geometry/``):

* numpy *allocation* factories (``np.empty/zeros/ones/full/asarray/
  array/frombuffer/fromiter``) must pass an explicit ``dtype=`` that is
  an integer (or bool) dtype — the numpy default is ``float64``;
* ``np.arange``/``np.linspace`` must not pass a float dtype
  (``arange`` over ints already yields ints, so its dtype may be
  omitted; ``linspace`` is float by construction and always flagged);
* ``array.array(typecode, ...)`` must use an integer typecode
  (``'f'``/``'d'``/``'u'`` are flagged).

Suppress deliberate exceptions with ``# srplint: allow(SRP006)
<reason>`` — e.g. a reporting-only buffer of seconds.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from srplint.engine import Finding, Rule

#: numpy factories that allocate with a float64 default dtype
ALLOC_FACTORIES = frozenset({
    "empty", "zeros", "ones", "full", "asarray", "array", "frombuffer",
    "fromiter",
})

#: numpy dtype names accepted as exact (integer or bool)
INT_DTYPES = frozenset({
    "int8", "int16", "int32", "int64", "uint8", "uint16", "uint32",
    "uint64", "intp", "uintp", "int_", "intc", "bool_", "bool", "int",
})

#: ``array.array`` typecodes backed by C integers
INT_TYPECODES = frozenset("bBhHiIlLqQ")

#: names a numpy module is commonly imported as
NUMPY_ALIASES = frozenset({"np", "numpy"})


def _dtype_kw(call: ast.Call) -> Optional[ast.expr]:
    for kw in call.keywords:
        if kw.arg == "dtype":
            return kw.value
    return None


def _dtype_is_integer(node: ast.expr) -> Optional[bool]:
    """True/False when the dtype expression is classifiable, else None."""
    name = None
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        # string dtype codes: 'i8', '<i4', 'u2', '?', 'f8', ...
        code = node.value.lstrip("<>=|")
        return bool(code) and code[0] in "iub?"
    if name is None:
        return None  # computed dtype: give it the benefit of the doubt
    if name in INT_DTYPES:
        return True
    return False


class SRP006IntegerDtypes(Rule):
    """Flag float-dtyped array allocations in the exact-integer core."""

    code = "SRP006"
    name = "integer-dtype-arrays"
    scope = ("repro/core/", "repro/geometry/")

    def check(self, tree: ast.Module, path: str) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in NUMPY_ALIASES
            ):
                self._check_numpy(node, func.attr, path, findings)
            elif isinstance(func, ast.Name) and func.id == "array":
                self._check_stdlib_array(node, path, findings)
        return findings

    def _check_numpy(self, call: ast.Call, fname: str, path: str,
                     findings: List[Finding]) -> None:
        if fname == "linspace":
            findings.append(self.finding(
                path, call,
                "np.linspace produces float samples; the integer core must "
                "build ranges with np.arange over ints",
            ))
            return
        dtype = _dtype_kw(call)
        if fname == "arange":
            if dtype is not None and _dtype_is_integer(dtype) is False:
                findings.append(self.finding(
                    path, call,
                    "np.arange with a float dtype in the exact-integer core",
                ))
            return
        if fname not in ALLOC_FACTORIES:
            return
        if dtype is None:
            findings.append(self.finding(
                path, call,
                f"np.{fname} without an explicit integer dtype= — numpy "
                "defaults to float64, which breaks the exact-integer "
                "contract of the geometry arrays",
            ))
        elif _dtype_is_integer(dtype) is False:
            findings.append(self.finding(
                path, call,
                f"np.{fname} with a non-integer dtype in the exact-integer "
                "core",
            ))

    def _check_stdlib_array(self, call: ast.Call, path: str,
                            findings: List[Finding]) -> None:
        if not call.args:
            return
        first = call.args[0]
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
            return  # not an array.array typecode call (e.g. np alias misuse)
        if len(first.value) == 1 and first.value not in INT_TYPECODES:
            findings.append(self.finding(
                path, call,
                f"array.array typecode {first.value!r} is not an integer "
                "typecode; geometry columns must stay exact",
            ))
