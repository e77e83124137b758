"""The declared environment-knob registry (simlint SL013's source of truth).

Every ``os.environ`` / ``os.getenv`` read in the ``repro`` package must
name a knob declared here; simlint rule SL013 fails the build otherwise.

An environment knob never changes results: it may only change *how* the
same results are computed (worker counts, cache location),
and each entry carries a written justification of why, same contract as
the analyzer allowlist.  A value that does change results belongs in
:class:`~repro.config.SystemConfig` or
:class:`~repro.exec.runner.CellRequest`, whose fields
:func:`~repro.exec.cache.cell_key` already hashes.

The registry lives in the runtime package, not with the analyzers, so
importing :mod:`repro.exec` never loads the static analysis tools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "ENV_REGISTRY",
    "EnvKnob",
    "is_registered",
]


@dataclass(frozen=True)
class EnvKnob:
    """One declared environment knob and why it cannot change results."""

    name: str
    justification: str


ENV_REGISTRY: Tuple[EnvKnob, ...] = (
    EnvKnob(
        name="NDPBRIDGE_JOBS",
        justification=(
            "worker-pool width only: cells are independent deterministic "
            "simulations, so fan-out changes wall-clock, never payloads "
            "(test_exec asserts serial == pooled bit-for-bit)"
        ),
    ),
    EnvKnob(
        name="NDPBRIDGE_CACHE",
        justification=(
            "enables/disables the result cache; a hit replays the exact "
            "JSON payload the fresh run produced (round-trip asserted), "
            "so presence of the cache cannot change any result"
        ),
    ),
    EnvKnob(
        name="NDPBRIDGE_CACHE_DIR",
        justification=(
            "relocates the cache directory; contents are keyed by the "
            "full result fingerprint, so the location carries no "
            "result-affecting information"
        ),
    ),
)


def _validate() -> None:
    seen = set()
    for knob in ENV_REGISTRY:
        if not knob.justification.strip():
            raise ValueError(
                f"env registry entry {knob.name} has no justification -- "
                f"every declared knob must say why it cannot change results"
            )
        if knob.name in seen:
            raise ValueError(f"duplicate env registry entry {knob.name}")
        seen.add(knob.name)


_validate()


def is_registered(name: str) -> bool:
    return any(knob.name == name for knob in ENV_REGISTRY)
