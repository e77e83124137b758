"""Discrete-event simulation kernel used by the NDPBridge model."""

from .engine import SimulationError, Simulator, sanitize_from_env
from .component import Component
from .rng import DeterministicRNG
from .stats import Accumulator, Counter, Histogram, StatsRegistry

__all__ = [
    "SimulationError",
    "Simulator",
    "sanitize_from_env",
    "Component",
    "DeterministicRNG",
    "Accumulator",
    "Counter",
    "Histogram",
    "StatsRegistry",
]
