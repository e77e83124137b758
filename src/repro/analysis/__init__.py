"""Result analysis: metrics, reports, timelines, latency percentiles and
analytic bounds.  (The lending-metadata checks are not here: every run
makes them in ``NDPSystem.finish``.)"""

from .timeline import UnitActivity, render_timeline, system_timeline, utilization_summary
from .latency import LatencyRecorder, exact_percentile
from .metrics import RunMetrics, collect_metrics
from .report import (
    energy_table,
    geomean,
    metrics_table,
    speedup_summary,
    speedups,
    text_table,
    to_json,
)

__all__ = [
    "UnitActivity",
    "render_timeline",
    "system_timeline",
    "utilization_summary",
    "LatencyRecorder",
    "exact_percentile",
    "RunMetrics",
    "collect_metrics",
    "energy_table",
    "geomean",
    "metrics_table",
    "speedup_summary",
    "speedups",
    "text_table",
    "to_json",
]
