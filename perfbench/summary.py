"""Medians, spreads and tail percentiles for benchmark reports."""

from __future__ import annotations

import re
import statistics
from typing import Dict, Sequence

from repro.analysis.latency import exact_percentile

#: Every metric name the benchmark reports must match this.
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def check_name(name: str) -> str:
    if not NAME_RE.fullmatch(name):
        raise ValueError(f"metric name {name!r} does not match {NAME_RE.pattern}")
    return name


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def describe(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartile spread and sample count of repeated measurements."""
    return {
        "median": statistics.median(values),
        "spread": spread(values),
        "n": len(values),
    }


def tail_percentile(samples: Sequence[int], permille: int) -> int:
    """Exact nearest-rank percentile, refused without enough tail samples.

    A p99 read from fewer than :data:`MIN_TAIL_SAMPLES` samples beyond it
    is one or two outliers, not a tail; :class:`ValueError` says so.
    """
    n = len(samples)
    rank = -(-permille * n // 1000)
    if n - rank < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{permille / 10:g} of {n} samples has {n - rank} beyond it; "
            f"need at least {MIN_TAIL_SAMPLES}"
        )
    return exact_percentile(samples, permille)
