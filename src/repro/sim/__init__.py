"""Discrete-event simulation kernel used by the NDPBridge model."""

from .engine import SimulationError, Simulator
from .rng import DeterministicRNG
from .stats import Counter, StatsRegistry

__all__ = [
    "SimulationError",
    "Simulator",
    "DeterministicRNG",
    "Counter",
    "StatsRegistry",
]
