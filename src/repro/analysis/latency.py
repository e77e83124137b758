"""Exact streaming latency statistics for open-loop runs.

The open-loop driver (:mod:`repro.runtime.requests`) records one integer
birth->completion latency per request per tenant.  Tail percentiles must
be *exact and bit-reproducible* -- they feed golden tests and the
bit-identity oracle (paused-and-resumed vs run-through) -- so this
recorder keeps every sample and computes
nearest-rank percentiles with pure integer arithmetic.  Paper-scale runs
are a few 10^5 requests, so exactness is cheap; no P^2 or t-digest
approximation sneaks non-determinism into the tail.

Percentiles are addressed in *permille* (p50 = 500, p99 = 990,
p999 = 999) to keep the whole pipeline float-free.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence


def exact_percentile(samples: Sequence[int], permille: int) -> int:
    """Nearest-rank percentile of ``samples`` at ``permille``/1000.

    Rank is ``ceil(permille * n / 1000)`` (1-indexed into the sorted
    samples), the classic nearest-rank definition: p1000 is the max,
    permille 0 is the min, and every returned value is an observed
    sample.  Pure integer arithmetic -- no float rounding can ever move
    a tail estimate between platforms.

    Raises :class:`ValueError` on an empty sequence, mirroring
    ``geomean([])`` (a silent 0 here would fake a perfect tail).
    """
    if not 0 <= permille <= 1000:
        raise ValueError(f"permille {permille} out of range [0, 1000]")
    n = len(samples)
    if n == 0:
        raise ValueError("percentile of an empty sample set is undefined")
    ordered = sorted(samples)
    rank = -(-permille * n // 1000)  # ceil division, no floats
    return ordered[max(rank, 1) - 1]


#: The tail points every open-loop report includes.
REPORT_PERMILLES = (500, 990, 999)


class LatencyRecorder:
    """Per-tenant integer latency samples with exact percentile reports.

    ``record`` appends; samples are sorted at query time.
    """

    def __init__(self) -> None:
        self.samples: Dict[str, List[int]] = {}

    def record(self, tenant: str, latency: int) -> None:
        if latency < 0:
            raise ValueError(f"negative latency {latency} for {tenant}")
        self.samples.setdefault(tenant, []).append(latency)

    def count(self, tenant: str) -> int:
        return len(self.samples.get(tenant, []))

    def tenants(self) -> List[str]:
        return sorted(self.samples)

    def percentile(self, tenant: str, permille: int) -> int:
        if tenant not in self.samples:
            raise ValueError(f"no samples recorded for tenant {tenant!r}")
        return exact_percentile(self.samples[tenant], permille)

    def max_latency(self, tenant: str) -> int:
        return self.percentile(tenant, 1000)

    def mean_latency(self, tenant: str) -> float:
        if tenant not in self.samples:
            raise ValueError(f"no samples recorded for tenant {tenant!r}")
        samples = self.samples[tenant]
        return sum(samples) / len(samples)

    def summary(
        self, permilles: Iterable[int] = REPORT_PERMILLES
    ) -> Dict[str, float]:
        """Flat ``lat/<tenant>/p<permille>`` keys (plus count/mean/max),
        shaped for ``RunMetrics.extra`` so open-loop cells cache through
        the exec layer's JSON round-trip unchanged."""
        out: Dict[str, float] = {}
        for tenant in self.tenants():
            prefix = f"lat/{tenant}"
            out[f"{prefix}/count"] = float(self.count(tenant))
            out[f"{prefix}/mean"] = self.mean_latency(tenant)
            out[f"{prefix}/max"] = float(self.max_latency(tenant))
            for pm in permilles:
                out[f"{prefix}/p{pm}"] = float(self.percentile(tenant, pm))
        return out
