"""The declared environment-knob registry (simrace RC003's source of truth).

Every ``os.environ`` / ``os.getenv`` read in the tree must name a knob
declared here (simrace rule RC003 fails the build otherwise), and every
knob declared ``fingerprinted`` must map to a field of the cache key --
:mod:`repro.exec.cache` cross-checks the mapping at import time, so the
registry and the key can never drift apart.

A knob is ``fingerprinted`` when its value can change simulation
*results* (it must be part of the cache key) and ``execution_only`` when
it can only change *how* the same results are computed (worker counts,
cache location, audit modes); execution-only entries carry a written
justification, same contract as the analyzer allowlists.

The registry lives in the runtime package, not with the analyzers, so
importing :mod:`repro.exec` never loads the static analysis tools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "ENV_REGISTRY",
    "EnvKnob",
    "fingerprint_field_of",
    "fingerprinted_knobs",
    "is_registered",
    "registered_names",
]


@dataclass(frozen=True)
class EnvKnob:
    """One declared environment knob."""

    name: str
    #: "fingerprinted" (result-affecting; must be in the cache key) or
    #: "execution_only" (cannot change results; justification required).
    kind: str
    #: The cache-key field that carries the knob's effect
    #: (fingerprinted knobs only; validated against
    #: :data:`repro.exec.cache.CELL_KEY_FIELDS` at import time there).
    field: str = ""
    justification: str = ""


ENV_REGISTRY: Tuple[EnvKnob, ...] = (
    EnvKnob(
        name="NDPBRIDGE_JOBS",
        kind="execution_only",
        justification=(
            "worker-pool width only: cells are independent deterministic "
            "simulations, so fan-out changes wall-clock, never payloads "
            "(test_exec asserts serial == pooled bit-for-bit)"
        ),
    ),
    EnvKnob(
        name="NDPBRIDGE_CACHE",
        kind="execution_only",
        justification=(
            "enables/disables the result cache; a hit replays the exact "
            "JSON payload the fresh run produced (round-trip asserted), "
            "so presence of the cache cannot change any result"
        ),
    ),
    EnvKnob(
        name="NDPBRIDGE_CACHE_DIR",
        kind="execution_only",
        justification=(
            "relocates the cache directory; contents are keyed by the "
            "full result fingerprint, so the location carries no "
            "result-affecting information"
        ),
    ),
    EnvKnob(
        name="NDPBRIDGE_SANITIZE",
        kind="execution_only",
        justification=(
            "audit-only mode: conservation ledgers and dispatch-order "
            "checks observe the run and raise on violation; a run that "
            "completes is bit-identical with the sanitizer on or off "
            "(CI runs the suite both ways)"
        ),
    ),
)


def _validate() -> None:
    seen = set()
    for knob in ENV_REGISTRY:
        if knob.kind not in ("fingerprinted", "execution_only"):
            raise ValueError(
                f"env registry entry {knob.name}: unknown kind {knob.kind!r}"
            )
        if knob.kind == "fingerprinted" and not knob.field:
            raise ValueError(
                f"env registry entry {knob.name}: fingerprinted knobs must "
                f"name the cache-key field that carries them"
            )
        if not knob.justification.strip():
            raise ValueError(
                f"env registry entry {knob.name} has no justification -- "
                f"every declared knob must say why its kind is safe"
            )
        if knob.name in seen:
            raise ValueError(f"duplicate env registry entry {knob.name}")
        seen.add(knob.name)


_validate()


def registered_names() -> Tuple[str, ...]:
    """Every declared knob name, in registry order."""
    return tuple(knob.name for knob in ENV_REGISTRY)


def is_registered(name: str) -> bool:
    return any(knob.name == name for knob in ENV_REGISTRY)


def fingerprinted_knobs() -> Tuple[EnvKnob, ...]:
    """The result-affecting knobs (each must map to a cache-key field)."""
    return tuple(k for k in ENV_REGISTRY if k.kind == "fingerprinted")


def fingerprint_field_of() -> Dict[str, str]:
    """``{knob name: cache-key field}`` for the fingerprinted knobs."""
    return {k.name: k.field for k in fingerprinted_knobs()}
