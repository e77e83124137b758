"""Workload and dataset generators."""

from .graphs import Graph, chain_graph, rmat_graph, uniform_graph
from .matrices import SparseMatrix, banded_matrix, powerlaw_matrix
from .openloop import (
    BurstyArrivals,
    OpenLoopSpec,
    PoissonArrivals,
    Request,
    SkewSchedule,
    TenantSpec,
    generate_requests,
)
from .trees import BinaryTree, balanced_bst, random_bst
from .zipf import ZipfGenerator, ZipfSampler, shuffled_identity

__all__ = [
    "Graph",
    "chain_graph",
    "rmat_graph",
    "uniform_graph",
    "SparseMatrix",
    "banded_matrix",
    "powerlaw_matrix",
    "BinaryTree",
    "balanced_bst",
    "random_bst",
    "ZipfGenerator",
    "ZipfSampler",
    "shuffled_identity",
    "BurstyArrivals",
    "PoissonArrivals",
    "OpenLoopSpec",
    "Request",
    "SkewSchedule",
    "TenantSpec",
    "generate_requests",
]
