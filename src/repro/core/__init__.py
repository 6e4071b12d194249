"""The paper's primary contribution: the Strip-based Route Planning framework.

Modules map one-to-one onto the paper's sections:

* :mod:`repro.core.strips` — strip aggregation and the strip graph
  (Section IV-A, Algorithm 1);
* :mod:`repro.core.segments` — the segment representation of routes
  within strips (Section V-A, Definition 6, Eq. 4);
* :mod:`repro.core.naive_store` — ordered-set collision detection
  (Section V-B);
* :mod:`repro.core.slope_index` — slope-based segment indexing
  (Section V-D, Algorithm 3);
* :mod:`repro.core.columnar_store` — the array-backed columnar layout
  of the slope index (an engineering extension; routes are bit-identical
  to the object-backed stores);
* :mod:`repro.core.intra_strip` — backtracking route search within a
  strip (Section V-C, Algorithm 2);
* :mod:`repro.core.inter_strip` — Dijkstra over the strip graph with
  intra-strip edge weights (Section VI, Algorithm 4);
* :mod:`repro.core.conversion` — segment-plan to grid-route conversion
  (the third TC component of Fig. 22a);
* :mod:`repro.core.fallback` — the grid-level space-time A* called in
  the rare cases the restricted search fails (Section VI, Remarks);
* :mod:`repro.core.planner` — :class:`SRPPlanner`, the end-to-end
  public entry point.
"""

from repro.core.columnar_store import ColumnarSegmentStore
from repro.core.intra_strip import IntraPlan, plan_within_strip
from repro.core.naive_store import NaiveSegmentStore
from repro.core.planner import SRPPlanner
from repro.core.segments import Segment
from repro.core.slope_index import SlopeIndexedStore
from repro.core.strips import (
    Direction,
    Strip,
    StripGraph,
    StripKind,
    TransitRange,
    build_strip_graph,
)

__all__ = [
    "Direction",
    "StripKind",
    "Strip",
    "StripGraph",
    "TransitRange",
    "build_strip_graph",
    "Segment",
    "ColumnarSegmentStore",
    "NaiveSegmentStore",
    "SlopeIndexedStore",
    "IntraPlan",
    "plan_within_strip",
    "SRPPlanner",
]
