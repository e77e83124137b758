"""Discrete-event simulation kernel used by the NDPBridge model."""

from .engine import SimulationError, Simulator, sanitize_from_env
from .rng import DeterministicRNG
from .stats import Counter, StatsRegistry

__all__ = [
    "SimulationError",
    "Simulator",
    "sanitize_from_env",
    "DeterministicRNG",
    "Counter",
    "StatsRegistry",
]
