"""Result analysis: metrics, reporting, and metadata audits."""

from .audit import AuditReport, audit_system
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
    "AuditReport",
    "UnitActivity",
    "render_timeline",
    "system_timeline",
    "utilization_summary",
    "audit_system",
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
