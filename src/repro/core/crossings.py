"""Compact ledger of committed strip-boundary crossings.

A crossing event "robot at *from_cell* at t-1, at *to_cell* at t" is the
planner's device for exact boundary-swap detection (DESIGN.md §3).  The
ledger packs each event into a single integer —

    ((from_row * W + from_col) * HW + (to_row * W + to_col)) * T + t

— so a day of traffic costs one small-int set entry per crossing
instead of a tuple-of-tuples (~4x less resident memory, which matters
because MC is one of the paper's three reported metrics).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Tuple

from repro.types import Grid

#: modulus for the time component of packed keys; crossings are pruned
#: long before wrapping could matter, but keep it roomy anyway.
_TIME_SPAN = 1 << 40


class CrossingLedger:
    """Multiset of boundary crossings with O(1) membership by (from, to, t).

    Keys are *reference counted* rather than kept in a plain set:
    forced recovery commits (a slowdown-stretched suffix, a pinned
    robot's hold) are committed verbatim before the cascade replans the
    routes they invalidate, so two commit records can transiently claim
    the same crossing — exactly like overlapping claims in the segment
    stores, which keep one entry per record.  Each record's decommit
    then releases its own reference; membership only changes on the
    first add and the last remove.
    """

    __slots__ = ("_width", "_cells", "_keys")

    def __init__(self, height: int, width: int) -> None:
        self._width = width
        self._cells = height * width
        self._keys: Dict[int, int] = {}

    def _pack(self, from_cell: Grid, to_cell: Grid, t: int) -> int:
        f = from_cell[0] * self._width + from_cell[1]
        g = to_cell[0] * self._width + to_cell[1]
        return (f * self._cells + g) * _TIME_SPAN + t

    def _unpack(self, key: int) -> Tuple[Grid, Grid, int]:
        rest, t = divmod(key, _TIME_SPAN)
        f, g = divmod(rest, self._cells)
        return (
            divmod(f, self._width),
            divmod(g, self._width),
            t,
        )

    # ------------------------------------------------------------------
    def add(self, from_cell: Grid, to_cell: Grid, t: int) -> None:
        key = self._pack(from_cell, to_cell, t)
        self._keys[key] = self._keys.get(key, 0) + 1

    def add_key(self, key: Tuple[Grid, Grid, int]) -> None:
        self.add(*key)

    def update(self, keys: Iterable[Tuple[Grid, Grid, int]]) -> None:
        for key in keys:
            self.add(*key)

    def remove(self, from_cell: Grid, to_cell: Grid, t: int) -> None:
        """Release one reference; KeyError when it was never committed."""
        key = self._pack(from_cell, to_cell, t)
        count = self._keys.get(key, 0)
        if count == 0:
            raise KeyError(f"crossing {(from_cell, to_cell, t)!r} not committed")
        if count == 1:
            del self._keys[key]
        else:
            self._keys[key] = count - 1

    def remove_key(self, key: Tuple[Grid, Grid, int]) -> None:
        self.remove(*key)

    def contains(self, from_cell: Grid, to_cell: Grid, t: int) -> bool:
        return self._pack(from_cell, to_cell, t) in self._keys

    def __contains__(self, key: Tuple[Grid, Grid, int]) -> bool:
        return self.contains(*key)

    def iter_keys(self) -> Iterator[Tuple[Grid, Grid, int]]:
        """Yield every committed ``(from_cell, to_cell, t)`` event.

        Unpacking is audit-path only (order unspecified); the planner's
        hot membership probes never touch tuples.
        """
        for key in self._keys:
            yield self._unpack(key)

    # ------------------------------------------------------------------
    def prune(self, before: int) -> int:
        """Drop crossings that happened strictly before ``before``."""
        kept = {k: c for k, c in self._keys.items() if k % _TIME_SPAN >= before}
        dropped = len(self._keys) - len(kept)
        if dropped:
            self._keys = kept
        return dropped

    def clear(self) -> None:
        self._keys.clear()

    def __len__(self) -> int:
        return len(self._keys)

    def __bool__(self) -> bool:
        return bool(self._keys)
