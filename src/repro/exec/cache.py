"""On-disk result cache for simulation runs.

A full figure harness replays the same (app, design, config, seed, scale)
cells over and over while only one knob changes; simulation is
deterministic, so every repeated cell is wasted work.  The cache stores
the :class:`~repro.analysis.metrics.RunMetrics` of finished cells as JSON
files keyed by a fingerprint of everything that can influence the result:

* the application name, workload ``scale`` and ``seed``,
* the full :class:`~repro.config.SystemConfig` (canonical JSON of every
  field, enums by value),
* a *code version* -- a hash over the ``repro`` package sources a run
  can import -- so any model change invalidates the whole cache.

JSON round-trips Python ints and floats exactly, so a cache hit is
bit-identical to the fresh run that produced it; tests assert this.

The cache directory defaults to ``.ndpbridge-cache/`` under the current
working directory and can be moved with ``NDPBRIDGE_CACHE_DIR`` or
disabled entirely with ``NDPBRIDGE_CACHE=0``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional

from ..analysis.metrics import RunMetrics
from ..config import SystemConfig
from ..energy import EnergyBreakdown

#: Bump to invalidate caches when the serialization format changes.
FORMAT_VERSION = 1

#: Sub-packages of ``repro`` that no run imports (the static analyzer),
#: left out of the code version so editing them keeps cached cells.
_UNHASHED_PACKAGES = ("analyze", "lint")

_code_version: Optional[str] = None


def code_version() -> str:
    """Hash of the ``repro`` package sources (computed once per process).

    Any edit to the model invalidates previously cached results -- the
    cache must never survive a behaviour change.  Only the analyzer
    packages are left out.
    """
    global _code_version
    if _code_version is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root)
            if rel.parts[0] in _UNHASHED_PACKAGES:
                continue
            h.update(str(rel).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
        _code_version = h.hexdigest()[:16]
    return _code_version


def _canonical(obj: object) -> object:
    """Reduce config values to a deterministic JSON-safe form."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    return obj


def config_fingerprint(config: SystemConfig) -> str:
    """Deterministic digest of every configuration field."""
    blob = json.dumps(_canonical(config), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def cell_key(
    app: str,
    config: SystemConfig,
    scale: float,
    seed: int,
    verify: bool = True,
    openloop: "Optional[object]" = None,
) -> str:
    """Cache key for one simulation cell.

    ``openloop`` fingerprints open-loop request driving: the
    :class:`~repro.workloads.openloop.OpenLoopSpec` (tenants, arrival
    processes, skew schedules, warm-up) is canonicalized into the blob,
    so two cells differing in any workload knob never alias.  ``None``
    (closed-loop) is omitted from the blob, preserving closed-loop keys.
    """
    fields: Dict[str, object] = {
        "format": FORMAT_VERSION,
        "app": app,
        "design": config.design.value,
        "config": config_fingerprint(config),
        "scale": scale,
        "seed": seed,
        "verify": verify,
        "code": code_version(),
    }
    if openloop is not None:
        fields["openloop"] = _canonical(openloop)
    blob = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# RunMetrics <-> JSON (exact round-trip; as_dict() drops fields)
# ----------------------------------------------------------------------
def metrics_to_payload(m: RunMetrics) -> Dict[str, object]:
    return {
        "design": m.design,
        "app": m.app,
        "makespan": m.makespan,
        "avg_unit_time": m.avg_unit_time,
        "max_unit_time": m.max_unit_time,
        "wait_fraction": m.wait_fraction,
        "total_busy_cycles": m.total_busy_cycles,
        "tasks_executed": m.tasks_executed,
        "task_messages": m.task_messages,
        "data_messages": m.data_messages,
        "energy": (
            None
            if m.energy is None
            else {
                "core_sram_pj": m.energy.core_sram_pj,
                "local_dram_pj": m.energy.local_dram_pj,
                "comm_dram_pj": m.energy.comm_dram_pj,
                "static_pj": m.energy.static_pj,
            }
        ),
        "extra": dict(m.extra),
    }


def metrics_from_payload(payload: Dict[str, Any]) -> RunMetrics:
    energy = payload.get("energy")
    return RunMetrics(
        design=payload["design"],
        app=payload["app"],
        makespan=payload["makespan"],
        avg_unit_time=payload["avg_unit_time"],
        max_unit_time=payload["max_unit_time"],
        wait_fraction=payload["wait_fraction"],
        total_busy_cycles=payload["total_busy_cycles"],
        tasks_executed=payload["tasks_executed"],
        task_messages=payload["task_messages"],
        data_messages=payload["data_messages"],
        energy=None if energy is None else EnergyBreakdown(**energy),
        extra=dict(payload.get("extra", {})),
    )


class ResultCache:
    """One JSON file per finished cell under ``root``."""

    def __init__(self, root: "os.PathLike[str] | str") -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    @staticmethod
    def from_env() -> Optional["ResultCache"]:
        """The default cache, honouring the environment knobs.

        ``NDPBRIDGE_CACHE=0`` disables caching (returns ``None``);
        ``NDPBRIDGE_CACHE_DIR`` relocates the cache directory.
        """
        if os.environ.get("NDPBRIDGE_CACHE", "1") in ("0", "off", "no"):
            return None
        root = os.environ.get("NDPBRIDGE_CACHE_DIR", ".ndpbridge-cache")
        return ResultCache(root)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[RunMetrics]:
        """The cached metrics, or ``None`` on a miss.

        A file that is absent, unreadable, not JSON, or JSON that
        :func:`metrics_from_payload` cannot rebuild is a miss: the cell
        re-simulates and :meth:`put` overwrites the file.
        """
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
            metrics = metrics_from_payload(payload["metrics"])
        except (OSError, ValueError, LookupError, TypeError, AttributeError):
            self.misses += 1
            return None
        self.hits += 1
        return metrics

    def put(self, key: str, metrics: RunMetrics) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"format": FORMAT_VERSION,
                   "metrics": metrics_to_payload(metrics)}
        # Write-then-rename so a crashed/parallel writer never leaves a
        # torn file behind; concurrent writers of the same key agree on
        # the contents anyway (determinism).
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)

    def clear(self) -> int:
        """Delete every cached result; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.rglob("*.json"):
                path.unlink()
                removed += 1
        return removed
