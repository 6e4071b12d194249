"""Recursive object sizing: the MC (memory consumption) metric.

The paper's MC records "the memory consumption of data structures
together with runtime space consumption during execution".  We measure
the deep size of a planner's traffic-scaling state
(:meth:`repro.planner_base.Planner.planning_state`) by walking the
object graph once, counting every reachable object exactly once.

numpy arrays contribute their buffer size; shared objects (interned
ints, repeated grids) are counted once, which matches how the runtime
actually spends memory.
"""

from __future__ import annotations

import sys
import types
from dataclasses import fields, is_dataclass
from typing import Any, Set

import numpy as np

_SKIPPED_TYPES = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.MethodType,
)


def deep_sizeof(obj: Any) -> int:
    """Return the deep size in bytes of ``obj`` and everything it references."""
    seen: Set[int] = set()
    stack = [obj]
    total = 0
    while stack:
        cur = stack.pop()
        oid = id(cur)  # srplint: allow(SRP007) same-process visited-set membership; ids never ordered or persisted
        if oid in seen:
            continue
        seen.add(oid)
        if isinstance(cur, _SKIPPED_TYPES):
            # Classes, functions and modules are shared program text,
            # not per-planner state; MC must not wander into them.
            continue
        if isinstance(cur, np.ndarray):
            total += sys.getsizeof(cur)
            if cur.base is not None:
                stack.append(cur.base)
            continue
        if isinstance(cur, memoryview):
            # A view is a handle; the bytes live in the exporting object
            # (e.g. an ``array.array`` buffer).
            total += sys.getsizeof(cur)
            stack.append(cur.obj)
            continue
        total += sys.getsizeof(cur)
        if isinstance(cur, dict):
            stack.extend(cur.keys())
            stack.extend(cur.values())
        elif isinstance(cur, (list, tuple, set, frozenset)):
            stack.extend(cur)
        elif is_dataclass(cur) and not isinstance(cur, type):
            for f in fields(cur):
                stack.append(getattr(cur, f.name))
        else:
            # An object can have BOTH a __dict__ and slot attributes
            # (a slotted subclass of an unslotted base), and its slots
            # can be spread across the MRO — walk all of them, or the
            # band index of a columnar store would go uncounted.
            if hasattr(cur, "__dict__"):
                stack.append(cur.__dict__)
            for klass in type(cur).__mro__:
                slots = klass.__dict__.get("__slots__", ())
                if isinstance(slots, str):
                    slots = (slots,)
                for slot in slots:
                    if slot != "__dict__" and hasattr(cur, slot):
                        stack.append(getattr(cur, slot))
    return total
