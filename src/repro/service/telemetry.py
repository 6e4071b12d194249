"""Live telemetry for the planning service: counters and histograms.

The registry is a *pure data structure*: it never reads a clock and
never touches I/O.  Every observation is an integer handed in by the
caller (the deterministic core passes simulated milliseconds, the
socket frontend passes measured wall milliseconds), so identical
request schedules produce identical snapshots — the determinism tests
compare registries structurally.  This module is inside srplint's
SRP003 scope; wall-clock reads belong in ``service/server.py`` and
``service/loadgen.py`` only.

Latency distributions use fixed geometric buckets rather than raw
samples: memory stays O(1) per histogram over an unbounded soak, and
the exported percentiles (p50/p95/p99) are deterministic functions of
the bucket counts (the upper bound of the bucket the rank falls in).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: upper bounds (inclusive) of the latency buckets, in milliseconds;
#: the final bucket is unbounded.  1-2-5 decades cover sub-millisecond
#: cache hits up to multi-second pathological stalls.
DEFAULT_BUCKET_BOUNDS_MS: Tuple[int, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000,
)


@dataclass
class LatencyHistogram:
    """Fixed-bucket latency histogram with deterministic percentiles."""

    bounds: Tuple[int, ...] = DEFAULT_BUCKET_BOUNDS_MS
    counts: List[int] = field(default_factory=list)
    total: int = 0
    sum_ms: int = 0
    max_ms: int = 0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value_ms: int) -> None:
        """Record one latency sample (non-negative integer ms)."""
        if value_ms < 0:
            value_ms = 0
        idx = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value_ms <= bound:
                idx = i
                break
        self.counts[idx] += 1
        self.total += 1
        self.sum_ms += value_ms
        if value_ms > self.max_ms:
            self.max_ms = value_ms

    def percentile(self, pct: int) -> int:
        """Upper bound (ms) of the bucket holding the ``pct``-th sample.

        The overflow bucket reports the maximum observed value, so a
        soak with multi-second outliers still surfaces them.  Returns 0
        on an empty histogram.
        """
        if self.total == 0:
            return 0
        # ceil(total * pct / 100) in pure integer arithmetic
        rank = max(1, (self.total * pct + 99) // 100)
        seen = 0
        for i, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                return self.bounds[i] if i < len(self.bounds) else self.max_ms
        return self.max_ms

    def snapshot(self) -> Dict[str, object]:
        return {
            "count": self.total,
            "sum_ms": self.sum_ms,
            "max_ms": self.max_ms,
            "p50_ms": self.percentile(50),
            "p95_ms": self.percentile(95),
            "p99_ms": self.percentile(99),
            "buckets": list(self.counts),
        }


class TelemetryRegistry:
    """Named counters, gauges and latency histograms for one service.

    Counter names used by the core scheduler (all monotone):

    ``requests`` / ``admitted`` / ``shed`` / ``timeout`` / ``failed``
    / ``ok`` / ``degraded`` plus per-rung ``rung_full`` /
    ``rung_cached`` / ``rung_fallback``.  Gauges: ``queue_depth``
    (current) and ``queue_depth_peak``.  Histograms: ``queue_ms``
    (admission-to-dequeue wait, simulated or wall per driver) and
    ``service_ms`` (admission-to-reply, recorded by the frontend).
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, int] = {}
        self.histograms: Dict[str, LatencyHistogram] = {}

    # -- recording -----------------------------------------------------
    def incr(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def set_gauge(self, name: str, value: int) -> None:
        self.gauges[name] = value
        peak = name + "_peak"
        if value > self.gauges.get(peak, 0):
            self.gauges[peak] = value

    def observe(self, name: str, value_ms: int) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = LatencyHistogram()
        hist.observe(value_ms)

    # -- reading -------------------------------------------------------
    def count(self, name: str) -> int:
        return self.counters.get(name, 0)

    def shed_rate(self) -> Optional[Tuple[int, int]]:
        """``(shed, requests)`` when any request was seen, else None."""
        requests = self.count("requests")
        if requests == 0:
            return None
        return self.count("shed"), requests

    def snapshot(self, extra: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """A JSON-ready, deterministically ordered view of everything.

        ``extra`` merges caller-provided context (e.g. the planner's
        fallback and recovery counters) under the ``"planner"`` key.
        """
        snap: Dict[str, object] = {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                k: self.histograms[k].snapshot() for k in sorted(self.histograms)
            },
        }
        if extra is not None:
            snap["planner"] = extra
        return snap
