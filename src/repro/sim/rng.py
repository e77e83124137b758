"""Deterministic random number generation for the simulator.

All stochastic choices in the model (receiver/giver matching, sketch decay,
workload generation) draw from :class:`DeterministicRNG` instances derived
from a single root seed, so a run is exactly reproducible from its seed.
Sub-streams are derived by name, which keeps component behaviour independent
of construction order.

A stream is seeded on its first draw, not when it is built: a machine
builds a stream for every component that may draw, and most never do.
Seeding depends only on ``(seed, name)``, so a stream yields the same
sequence whenever it is seeded.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Callable, List, Sequence, TypeVar, cast

T = TypeVar("T")


class _Unseeded:
    """Stands in for a stream's generator until its first draw.

    Reading any generator attribute through it seeds the stream, which
    replaces this stand-in by the seeded generator, and reads the
    attribute from that generator."""

    __slots__ = ("_stream",)

    def __init__(self, stream: "DeterministicRNG") -> None:
        self._stream = stream

    def __getattr__(self, attr: str) -> Any:
        if attr.startswith("__"):
            # Hooks that copy and pickle look up, on a stand-in that may
            # not have its stream yet.
            raise AttributeError(attr)
        return getattr(self._stream._seeded(), attr)


class DeterministicRNG:
    """A named, seeded random stream."""

    def __init__(self, seed: int, name: str = "root") -> None:
        self.seed = seed
        self.name = name
        # Typed as the generator the stand-in becomes on the first draw.
        self._rng = cast(random.Random, _Unseeded(self))

    @staticmethod
    def _derive(seed: int, name: str) -> int:
        digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "little")

    def _seeded(self) -> random.Random:
        """The stream's generator, seeded now if nothing has drawn yet."""
        rng = self._rng
        if isinstance(rng, _Unseeded):
            rng = self._rng = random.Random(self._derive(self.seed, self.name))
        return rng

    def substream(self, name: str) -> "DeterministicRNG":
        """Create an independent stream keyed by ``name``."""
        return DeterministicRNG(self.seed, f"{self.name}/{name}")

    # -- delegating helpers ------------------------------------------------
    def random(self) -> float:
        return self._rng.random()

    def random_fn(self) -> Callable[[], float]:
        """The stream's own ``random``: a loop that draws many times binds
        it once and skips this wrapper, drawing the same values."""
        return self._seeded().random

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
