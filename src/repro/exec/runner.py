"""Parallel, cached execution of simulation cells.

The benchmark matrix is embarrassingly parallel: every (app, design)
cell is an independent deterministic simulation.  This module fans the
cells out over a :class:`concurrent.futures.ProcessPoolExecutor`, backed
by the on-disk :class:`~repro.exec.cache.ResultCache`, and reassembles
results in request order so callers see exactly what the old serial loop
produced.

Worker processes rebuild the whole system from the pickled
:class:`~repro.config.SystemConfig`; nothing mutable crosses the process
boundary, so a cell's metrics are bit-identical whether it ran in-process,
in a worker, or came from the cache (the determinism tests assert all
three).

Environment knobs:

* ``NDPBRIDGE_JOBS`` -- worker count (default: the machine's CPU count;
  ``1`` forces the serial in-process path; a value below 1 or not a
  whole number raises :class:`~repro.config.ConfigError`),
* ``NDPBRIDGE_CACHE_DIR`` / ``NDPBRIDGE_CACHE=0`` -- see
  :mod:`repro.exec.cache`.

Every knob read here is declared in the knob registry
(:mod:`repro.exec.knobs`) with a justification of why it cannot change a
cached value.  No environment knob may change results: a value that does
is a field of :class:`CellRequest` or its
:class:`~repro.config.SystemConfig`, and :func:`~repro.exec.cache.cell_key`
hashes both.  The simlint rule SL013 flags any ``os.environ`` read missing
from the registry.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from ..analysis.metrics import RunMetrics
from ..config import ConfigError, SystemConfig
from ..workloads.openloop import OpenLoopSpec
from .cache import ResultCache, cell_key, metrics_from_payload, \
    metrics_to_payload

_UNSET = object()


@dataclass(frozen=True)
class CellRequest:
    """One simulation cell: everything needed to run it anywhere."""

    app: str
    config: SystemConfig
    scale: float
    seed: int
    verify: bool = True
    #: An :class:`~repro.workloads.openloop.OpenLoopSpec` switches the
    #: cell to open-loop request driving via
    #: :func:`repro.runtime.requests.run_openloop`; the spec is part of
    #: the cache key, so open-loop cells cache like closed-loop ones
    #: without ever aliasing them.
    openloop: Optional[OpenLoopSpec] = None

    @property
    def key(self) -> str:
        return cell_key(
            self.app, self.config, self.scale, self.seed, self.verify,
            openloop=self.openloop,
        )


def _execute_cell(request: CellRequest) -> Dict[str, object]:
    """Run one cell and return its metrics as a JSON-safe payload.

    Module-level so it pickles for worker processes.  Returning the
    payload (not the RunMetrics) keeps the wire format identical to the
    cache format.
    """
    from ..apps import make_app
    from ..runtime.runner import run_app

    if request.openloop is not None:
        from ..runtime.requests import run_openloop

        result = run_openloop(
            request.app, request.config, request.openloop,
            scale=request.scale, seed=request.seed, verify=request.verify,
        )
        return metrics_to_payload(result.metrics)
    app = make_app(request.app, scale=request.scale, seed=request.seed)
    result = run_app(app, request.config, verify=request.verify)
    return metrics_to_payload(result.metrics)


def default_jobs() -> int:
    """Worker count from ``NDPBRIDGE_JOBS``, else the CPU count.

    Raises :class:`~repro.config.ConfigError` when the knob is set to
    anything but a whole number of at least 1.
    """
    env = os.environ.get("NDPBRIDGE_JOBS")
    if not env:
        return os.cpu_count() or 1
    try:
        jobs = int(env)
    except ValueError:
        jobs = 0  # not a number: rejected below with the values below 1
    if jobs < 1:
        raise ConfigError(
            f"NDPBRIDGE_JOBS={env!r}: expected a whole number of worker "
            f"processes, at least 1"
        )
    return jobs


def execute_cells(
    requests: Sequence[CellRequest],
    jobs: Optional[int] = None,
    cache: "Optional[ResultCache]" = _UNSET,  # type: ignore[assignment]
) -> List[RunMetrics]:
    """Execute every request, returning metrics in request order.

    Cache hits are returned without simulating; misses run in parallel
    across ``jobs`` worker processes (serially in-process when ``jobs``
    is 1 or only one miss exists).
    """
    if jobs is None:
        jobs = default_jobs()
    if cache is _UNSET:
        cache = ResultCache.from_env()

    results: List[Optional[RunMetrics]] = [None] * len(requests)
    miss_indices: List[int] = []
    for i, request in enumerate(requests):
        if cache is not None:
            hit = cache.get(request.key)
            if hit is not None:
                results[i] = hit
                continue
        miss_indices.append(i)

    if miss_indices:
        misses = [requests[i] for i in miss_indices]
        if jobs <= 1 or len(misses) == 1:
            payloads = [_execute_cell(r) for r in misses]
        else:
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(misses))
            ) as pool:
                payloads = list(pool.map(_execute_cell, misses))
        for i, request, payload in zip(miss_indices, misses, payloads):
            metrics = metrics_from_payload(payload)
            results[i] = metrics
            if cache is not None:
                cache.put(request.key, metrics)

    out = [m for m in results if m is not None]
    assert len(out) == len(requests)
    return out


def run_matrix(
    apps: Sequence[str],
    configs: Mapping[str, SystemConfig],
    scale: float,
    seed: int,
    jobs: Optional[int] = None,
    cache: "Optional[ResultCache]" = _UNSET,  # type: ignore[assignment]
    verify: bool = True,
) -> Dict[str, Dict[str, RunMetrics]]:
    """Run every (app, column) cell of a grid through :func:`execute_cells`.

    ``configs`` maps a column label (a design letter, a swept value) to
    the configuration of that column; results come back keyed
    ``results[app][label]`` in the order of ``apps`` and ``configs``.
    """
    requests = [
        CellRequest(app=app, config=config, scale=scale, seed=seed,
                    verify=verify)
        for app in apps
        for config in configs.values()
    ]
    it = iter(execute_cells(requests, jobs=jobs, cache=cache))
    return {app: {label: next(it) for label in configs} for app in apps}
