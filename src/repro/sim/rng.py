"""Deterministic random number generation for the simulator.

All stochastic choices in the model (receiver/giver matching, sketch decay,
workload generation) draw from :class:`DeterministicRNG` instances derived
from a single root seed, so a run is exactly reproducible from its seed.
Sub-streams are derived by name, which keeps component behaviour independent
of construction order.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")


class DeterministicRNG:
    """A named, seeded random stream."""

    def __init__(self, seed: int, name: str = "root") -> None:
        self.seed = seed
        self.name = name
        self._rng = random.Random(self._derive(seed, name))

    @staticmethod
    def _derive(seed: int, name: str) -> int:
        digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "little")

    def substream(self, name: str) -> "DeterministicRNG":
        """Create an independent stream keyed by ``name``."""
        return DeterministicRNG(self.seed, f"{self.name}/{name}")

    # -- delegating helpers ------------------------------------------------
    def random(self) -> float:
        return self._rng.random()

    def random_fn(self) -> Callable[[], float]:
        """The stream's own ``random``: a loop that draws many times binds
        it once and skips this wrapper, drawing the same values."""
        return self._rng.random

    def randint(self, a: int, b: int) -> int:
        return self._rng.randint(a, b)

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        return self._rng.sample(seq, k)

    def shuffle(self, lst: List[T]) -> None:
        self._rng.shuffle(lst)

    def uniform(self, a: float, b: float) -> float:
        return self._rng.uniform(a, b)

    def expovariate(self, lam: float) -> float:
        return self._rng.expovariate(lam)

    def paretovariate(self, alpha: float) -> float:
        return self._rng.paretovariate(alpha)

    def __repr__(self) -> str:  # pragma: no cover
        return f"DeterministicRNG(seed={self.seed}, name={self.name!r})"
