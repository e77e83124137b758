"""Zipfian sampling (Section VII: data/queries for ll, ht, tree [91]).

Implements inverse-CDF sampling over a finite Zipf(s) distribution:
``P(k) proportional to 1 / k**s`` for ranks ``k = 1..n``.  A skew of 0 is
uniform; the paper-style skewed workloads use ``s`` around 0.8-1.2.
"""

from __future__ import annotations

import bisect
from typing import Dict, List

from ..sim import DeterministicRNG


def zipf_cdf(n: int, skew: float) -> List[float]:
    """The CDF of Zipf(``skew``) over ranks ``0..n-1`` (shared by both
    samplers so a :class:`ZipfSampler` at a fixed skew draws exactly the
    sequence a :class:`ZipfGenerator` would)."""
    if n <= 0:
        raise ValueError("population size must be positive")
    if skew < 0:
        raise ValueError("skew must be non-negative")
    weights = [1.0 / ((k + 1) ** skew) for k in range(n)]
    total = sum(weights)
    cdf: List[float] = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


class ZipfGenerator:
    """Samples integers in ``[0, n)`` with Zipfian rank frequencies."""

    def __init__(self, n: int, skew: float, rng: DeterministicRNG):
        if n <= 0:
            raise ValueError("population size must be positive")
        if skew < 0:
            raise ValueError("skew must be non-negative")
        self.n = n
        self.skew = skew
        self.rng = rng
        self._cdf = zipf_cdf(n, skew)

    def sample(self) -> int:
        """One Zipf-distributed rank in ``[0, n)`` (0 is the hottest)."""
        return bisect.bisect_left(self._cdf, self.rng.random())

    def sample_many(self, count: int) -> List[int]:
        """``count`` calls of :meth:`sample`, drawing the same values."""
        cdf = self._cdf
        draw = self.rng.random_fn()
        return [bisect.bisect_left(cdf, draw()) for _ in range(count)]

    def probability(self, rank: int) -> float:
        if not 0 <= rank < self.n:
            raise IndexError(f"rank {rank} out of range")
        lo = self._cdf[rank - 1] if rank > 0 else 0.0
        return self._cdf[rank] - lo


class ZipfSampler:
    """Skew-switchable Zipf sampler over ``[0, n)``.

    Unlike :class:`ZipfGenerator` (one fixed skew for a whole run), the
    open-loop driver shifts skew mid-stream on a schedule; this sampler
    accepts the skew per draw and caches one CDF per distinct skew so a
    piecewise schedule costs one CDF build per segment, not per request.
    :func:`~repro.workloads.openloop.generate_requests` makes the same
    draws in its own loop, which looks up :meth:`cdf` once per segment.
    """

    def __init__(self, n: int, rng: DeterministicRNG):
        if n <= 0:
            raise ValueError("population size must be positive")
        self.n = n
        self.rng = rng
        self._cdfs: Dict[float, List[float]] = {}

    def cdf(self, skew: float) -> List[float]:
        """The CDF at ``skew``: built on its first use, then kept."""
        key = float(skew)
        cdf = self._cdfs.get(key)
        if cdf is None:
            cdf = zipf_cdf(self.n, key)
            self._cdfs[key] = cdf
        return cdf

    def sample(self, skew: float) -> int:
        """One Zipf(``skew``)-distributed rank in ``[0, n)``."""
        return bisect.bisect_left(self.cdf(skew), self.rng.random())

    def probability(self, rank: int, skew: float) -> float:
        if not 0 <= rank < self.n:
            raise IndexError(f"rank {rank} out of range")
        cdf = self.cdf(skew)
        lo = cdf[rank - 1] if rank > 0 else 0.0
        return cdf[rank] - lo


def shuffled_identity(n: int, rng: DeterministicRNG) -> List[int]:
    """A permutation mapping Zipf ranks onto population indices, so the
    hot items are scattered rather than clustered at index 0."""
    perm = list(range(n))
    rng.shuffle(perm)
    return perm
