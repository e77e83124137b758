"""Open-loop multi-tenant request streams (ROADMAP: tail-latency SLOs).

The paper evaluates NDPBridge closed-loop: seed every task up front, run
to quiescence, report makespan.  Its index apps (ll/ht/tree) are really
*services*, though, and the interesting regime for dynamic triggering
and hot-block balancing is sustained load: requests arriving over time,
per-tenant key skew, and skew *shifts* mid-run.  This module generates
those request streams; :mod:`repro.runtime.requests` injects them into a
running :class:`~repro.runtime.system.NDPSystem`.

Everything here is purely generative and deterministic: the full request
list is a function of ``(spec, keyspace, seed)`` alone, computed before
the simulation starts.  That is what makes open-loop runs cacheable (the
stream is a pure function of the cell key) and resumable after a pause
(the stream is plain data on the app).

Arrival processes
-----------------
* :class:`PoissonArrivals` -- i.i.d. exponential gaps (mean ``mean_gap``
  cycles), rounded to integer cycles with a floor of 1.
* :class:`BurstyArrivals` -- a two-state Markov-modulated Poisson process
  (MMPP-2): a *calm* state with mean gap ``mean_gap`` and a *burst* state
  with mean gap ``burst_gap``; after each arrival the state flips with
  probability ``calm_switch`` / ``burst_switch``.

Key streams are per-tenant :class:`~repro.workloads.zipf.ZipfSampler`
draws; the skew at each request's arrival cycle comes from the tenant's
piecewise :class:`SkewSchedule`, so a mid-run skew shift moves the hot
set deterministically.  :func:`generate_requests` draws each tenant's
requests in one pass and merges the tenants with one sort.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from math import inf, log
from typing import List, NamedTuple, Sequence, Tuple

from ..sim import DeterministicRNG
from .zipf import ZipfSampler


class PoissonArrivals:
    """Deterministic Poisson arrival gaps in integer cycles."""

    def __init__(self, mean_gap: float, rng: DeterministicRNG):
        if mean_gap <= 0:
            raise ValueError("mean_gap must be positive")
        self.mean_gap = mean_gap
        self.rng = rng
        # A gap is ``rng.expovariate(lambd)``, rounded.  It is written
        # out as ``random.Random`` computes it, on the stream's bound
        # ``random``: the same value, without two wrapper calls.
        self._draw = rng.random_fn()
        self._lambd = 1.0 / mean_gap

    def next_gap(self) -> int:
        """The integer gap (>= 1 cycle) to the next arrival."""
        gap = round(-log(1.0 - self._draw()) / self._lambd)
        return gap if gap > 1 else 1


class BurstyArrivals:
    """MMPP-2 arrivals: exponential gaps modulated by a 2-state chain.

    The state is sampled *after* each arrival, so a stream's burstiness
    is itself part of the deterministic draw sequence.
    """

    def __init__(
        self,
        mean_gap: float,
        burst_gap: float,
        rng: DeterministicRNG,
        calm_switch: float = 0.05,
        burst_switch: float = 0.2,
    ):
        if mean_gap <= 0 or burst_gap <= 0:
            raise ValueError("arrival gaps must be positive")
        if not (0 <= calm_switch <= 1 and 0 <= burst_switch <= 1):
            raise ValueError("switch probabilities must be in [0, 1]")
        self.mean_gap = mean_gap
        self.burst_gap = burst_gap
        self.calm_switch = calm_switch
        self.burst_switch = burst_switch
        self.rng = rng
        self.bursting = False
        # Gaps are drawn as in PoissonArrivals, at the state's rate.
        self._draw = rng.random_fn()
        self._calm_lambd = 1.0 / mean_gap
        self._burst_lambd = 1.0 / burst_gap

    def next_gap(self) -> int:
        """The integer gap (>= 1 cycle) to the next arrival, then the
        state flip."""
        draw = self._draw
        if self.bursting:
            gap = round(-log(1.0 - draw()) / self._burst_lambd)
            if draw() < self.burst_switch:
                self.bursting = False
        else:
            gap = round(-log(1.0 - draw()) / self._calm_lambd)
            if draw() < self.calm_switch:
                self.bursting = True
        return gap if gap > 1 else 1


class SkewSchedule:
    """Piecewise-constant Zipf skew over simulated time.

    ``segments`` is a sequence of ``(start_cycle, skew)`` pairs sorted by
    start cycle; the first segment must start at cycle 0.  ``skew_at(t)``
    returns the skew of the segment covering cycle ``t``.
    """

    def __init__(self, segments: Sequence[Tuple[int, float]]):
        segs = [(int(s), float(k)) for s, k in segments]
        if not segs:
            raise ValueError("schedule needs at least one segment")
        if segs[0][0] != 0:
            raise ValueError("first segment must start at cycle 0")
        for (a, _), (b, _) in zip(segs, segs[1:]):
            if b <= a:
                raise ValueError("segment starts must strictly increase")
        self.segments = tuple(segs)

    def skew_at(self, cycle: int) -> float:
        skew = self.segments[0][1]
        for start, seg_skew in self.segments:
            if cycle < start:
                break
            skew = seg_skew
        return skew


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's open-loop stream (pure data; hashable for cache keys).

    ``skew`` is the piecewise schedule as ``((start_cycle, skew), ...)``;
    ``arrival`` selects the process (``"poisson"`` or ``"bursty"``); the
    ``burst_*``/``calm_switch`` knobs only matter for ``"bursty"``.
    ``start`` offsets the tenant's first arrival.
    """

    name: str
    n_requests: int
    mean_gap: float
    skew: Tuple[Tuple[int, float], ...] = ((0, 0.9),)
    arrival: str = "poisson"
    burst_gap: float = 0.0
    calm_switch: float = 0.05
    burst_switch: float = 0.2
    start: int = 0

    def __post_init__(self) -> None:
        if self.n_requests <= 0:
            raise ValueError("n_requests must be positive")
        if self.arrival not in ("poisson", "bursty"):
            raise ValueError(f"unknown arrival process {self.arrival!r}")
        if self.arrival == "bursty" and self.burst_gap <= 0:
            raise ValueError("bursty arrivals need burst_gap > 0")
        SkewSchedule(self.skew)  # validate eagerly


@dataclass(frozen=True)
class OpenLoopSpec:
    """A whole open-loop workload: tenants plus the warm-up cutoff.

    Pure hashable data, so it rides inside an exec-layer
    :class:`~repro.exec.runner.CellRequest` and fingerprints into the
    cell cache key.  ``warmup``: requests arriving before this cycle run
    normally but are excluded from the latency report (cold caches and
    empty sketches would otherwise pollute the tail).
    """

    tenants: Tuple[TenantSpec, ...]
    warmup: int = 0

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("need at least one tenant")
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")


class Request(NamedTuple):
    """One request: born at ``arrival``, touching Zipf rank ``rank``.

    ``req_id`` is the global injection order; ``tenant_seq`` the
    per-tenant order.  The app maps ``rank`` onto its own key space.
    """

    req_id: int
    tenant: str
    tenant_index: int
    tenant_seq: int
    arrival: int
    rank: int


def _make_arrivals(spec: TenantSpec, rng: DeterministicRNG):
    if spec.arrival == "bursty":
        return BurstyArrivals(
            spec.mean_gap,
            spec.burst_gap,
            rng,
            calm_switch=spec.calm_switch,
            burst_switch=spec.burst_switch,
        )
    return PoissonArrivals(spec.mean_gap, rng)


def _tenant_rows(
    spec: TenantSpec,
    tenant_index: int,
    keyspace: int,
    root: DeterministicRNG,
    rows: List[Tuple[int, int, int, int]],
) -> None:
    """Append one tenant's ``(arrival, tenant_index, tenant_seq, rank)``
    rows, in arrival order.

    Each request draws its gap from the tenant's arrival process (a
    bursty tenant's state flip follows the gap), then its key as
    ``ZipfSampler.sample`` would at the skew of the arrival cycle.  Gaps
    and keys come from *separate* named substreams, so changing a
    tenant's skew schedule never perturbs its arrival times.
    """
    next_gap = _make_arrivals(
        spec, root.substream(f"{spec.name}/arrivals")
    ).next_gap
    sampler = ZipfSampler(keyspace, root.substream(f"{spec.name}/keys"))
    draw_key = sampler.rng.random_fn()
    segments = SkewSchedule(spec.skew).segments
    # Arrivals never go back, so the segment covering them only advances:
    # to segment ``seg + 1`` once an arrival reaches ``starts[seg]``.
    starts = [start for start, _ in segments[1:]] + [inf]
    seg = 0
    cdf = sampler.cdf(segments[0][1])
    now = spec.start
    append = rows.append
    bisect_left = bisect.bisect_left
    for seq in range(spec.n_requests):
        now += next_gap()
        while now >= starts[seg]:
            seg += 1
            cdf = sampler.cdf(segments[seg][1])
        append((now, tenant_index, seq, bisect_left(cdf, draw_key())))


def generate_requests(
    tenants: Sequence[TenantSpec],
    keyspace: int,
    seed: int,
) -> List[Request]:
    """The full merged request list, sorted by arrival.

    Deterministic in ``(tenants, keyspace, seed)``: ties on arrival
    cycle break by tenant index then per-tenant sequence, and
    ``req_id`` is the post-sort position -- the exact injection order.
    """
    if not tenants:
        raise ValueError("need at least one tenant")
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ValueError("tenant names must be unique")
    root = DeterministicRNG(seed, "openloop")
    rows: List[Tuple[int, int, int, int]] = []
    for index, spec in enumerate(tenants):
        _tenant_rows(spec, index, keyspace, root, rows)
    # Rows sort by (arrival, tenant_index, tenant_seq), which no two
    # share, so the rank never decides.  Each request is built once, by
    # what ``Request._make`` does, without its Python-level call.
    rows.sort()
    new = tuple.__new__
    return [
        new(Request, (i, names[index], index, seq, arrival, rank))
        for i, (arrival, index, seq, rank) in enumerate(rows)
    ]
