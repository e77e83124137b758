"""The eight evaluated applications (Section VII)."""

from typing import Dict

from .base import NDPApplication
from .bfs import BfsApp
from .hash_table import HashTableApp
from .histogram import HistogramApp
from .join import HashJoinApp
from .linked_list import LinkedListApp
from .pagerank import PageRankApp
from .spmv import SpmvApp
from .sssp import SsspApp
from .stencil import StencilApp
from .triangles import TriangleCountApp
from .tree import TreeApp
from .wcc import WccApp

#: name -> class, in the paper's presentation order.
APP_CLASSES: Dict[str, type] = {
    "ll": LinkedListApp,
    "ht": HashTableApp,
    "tree": TreeApp,
    "spmv": SpmvApp,
    "bfs": BfsApp,
    "sssp": SsspApp,
    "pr": PageRankApp,
    "wcc": WccApp,
}

#: Extension applications: built on the same API, not part of the paper's
#: evaluated eight (stencil is the paper's own Section-IV illustration).
EXTENSION_APPS: Dict[str, type] = {
    "stencil": StencilApp,
    "hist": HistogramApp,
    "join": HashJoinApp,
    "tc": TriangleCountApp,
}


def make_app(name: str, scale: float = 1.0, seed: int = 1) -> NDPApplication:
    """Build an application sized by ``scale`` (1.0 = bench default).

    Scale multiplies the dominant size knobs so benches can trade fidelity
    for runtime via a single parameter; it must be positive.
    """
    if name not in APP_CLASSES and name not in EXTENSION_APPS:
        raise KeyError(
            f"unknown application {name!r}; choose from "
            f"{sorted(APP_CLASSES) + sorted(EXTENSION_APPS)}"
        )
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")

    def s(v: int, minimum: int = 1) -> int:
        return max(minimum, int(v * scale))

    if name == "ll":
        return LinkedListApp(
            n_lists=s(2048), n_queries=s(4096), seed=seed
        )
    if name == "ht":
        return HashTableApp(
            n_buckets=s(2048), n_keys=s(8192), n_queries=s(4096), seed=seed
        )
    if name == "tree":
        return TreeApp(n_nodes=s(4096) - 1, n_queries=s(2048), seed=seed)
    if name == "spmv":
        return SpmvApp(
            n_rows=s(16384), n_cols=s(16384), avg_nnz=8, skew=1.2, seed=seed
        )
    if name == "bfs":
        return BfsApp(n_vertices=_pow2(s(4096)), seed=seed)
    if name == "sssp":
        return SsspApp(n_vertices=_pow2(s(4096)), seed=seed)
    if name == "pr":
        return PageRankApp(n_vertices=_pow2(s(1024)), iterations=3, seed=seed)
    if name == "wcc":
        return WccApp(n_vertices=_pow2(s(4096)), seed=seed)
    if name == "stencil":
        side = max(8, int(64 * scale ** 0.5))
        return StencilApp(width=side, height=side, steps=3, seed=seed)
    if name == "join":
        return HashJoinApp(
            n_buckets=s(2048), r_rows=s(4096), s_rows=s(8192),
            n_keys=s(1024), seed=seed,
        )
    if name == "tc":
        return TriangleCountApp(n_vertices=_pow2(s(1024)), seed=seed)
    return HistogramApp(n_bins=s(1024), n_items=s(16384), seed=seed)


def _pow2(n: int) -> int:
    """Round up to a power of two (R-MAT requirement)."""
    p = 1
    while p < n:
        p <<= 1
    return p


__all__ = [
    "NDPApplication",
    "BfsApp",
    "HashTableApp",
    "LinkedListApp",
    "PageRankApp",
    "SpmvApp",
    "SsspApp",
    "TreeApp",
    "WccApp",
    "APP_CLASSES",
    "EXTENSION_APPS",
    "HashJoinApp",
    "HistogramApp",
    "StencilApp",
    "TriangleCountApp",
    "make_app",
]
