"""Parallel + cached execution of simulation cells.

``repro.exec`` decouples *what* to simulate (a :class:`CellRequest`) from
*where* it runs (in-process, a worker pool, or straight out of the
on-disk result cache).  Every grid the benchmark harness and the CLI
run goes through :func:`run_matrix`; see :mod:`repro.exec.runner` for
the execution model and :mod:`repro.exec.cache` for the cache key
design.
"""

from .cache import (
    ResultCache,
    cell_key,
    code_version,
    config_fingerprint,
    metrics_from_payload,
    metrics_to_payload,
)
from .runner import CellRequest, default_jobs, execute_cells, run_matrix

__all__ = [
    "CellRequest",
    "ResultCache",
    "cell_key",
    "code_version",
    "config_fingerprint",
    "default_jobs",
    "execute_cells",
    "metrics_from_payload",
    "metrics_to_payload",
    "run_matrix",
]
