"""High-level entry point: run one application on one configuration.

``run_app`` is the one-call API used by examples, tests and benchmarks:
it builds the right system model for the configured design (the NDP
machine, or the host multicore for design H), attaches the application,
seeds it, runs to completion, verifies the result, and returns the
paper-style metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..analysis.metrics import RunMetrics, collect_metrics
from ..config import ConfigError, Design, SystemConfig
from .system import NDPSystem

if TYPE_CHECKING:  # avoid a circular import; apps build on the runtime
    from ..apps.base import NDPApplication


class VerificationError(AssertionError):
    """The distributed execution produced a wrong answer."""


@dataclass
class RunResult:
    """An application run: the finished system, its metrics, and the app."""

    app: "NDPApplication"
    system: object
    metrics: RunMetrics


def check_serial(shards: int) -> None:
    """Reject any engine but the serial one (``shards`` must be 1)."""
    if shards != 1:
        raise ConfigError(
            f"shards={shards!r}: the sharded engine was removed; every "
            "run uses the serial engine (shards=1).  Sweeps scale across "
            "cells through repro.exec instead"
        )


def build_system(config: SystemConfig):
    """The system model matching the configured design."""
    if config.design is Design.H:
        from ..baselines.host_system import HostSystem

        return HostSystem(config)
    return NDPSystem(config)


def run_app(
    app: "NDPApplication",
    config: SystemConfig,
    verify: bool = True,
    shards: int = 1,
) -> RunResult:
    """Execute ``app`` on a fresh system built from ``config``.

    ``shards`` is kept for callers that pin the engine explicitly: ``1``
    (the only engine) is accepted, any other value raises
    :class:`~repro.config.ConfigError`.
    """
    check_serial(shards)
    system = build_system(config)
    app.attach(system)
    app.seed_tasks(system)
    system.run()
    if verify and not app.verify():
        raise VerificationError(
            f"{app.name} on design {config.design.value}: "
            "distributed result does not match the reference"
        )
    metrics = collect_metrics(system, app.name)
    return RunResult(app=app, system=system, metrics=metrics)


__all__ = [
    "RunResult",
    "VerificationError",
    "build_system",
    "run_app",
]
