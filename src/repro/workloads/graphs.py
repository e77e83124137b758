"""Synthetic graph generators.

Substitute for the SNAP [55] real-world graphs the paper uses: no network
access is available, so we generate graphs with the property that actually
drives the paper's results -- power-law degree skew, which concentrates
work in a few vertices' banks and creates the load imbalance the balancer
must fix.  ``rmat_graph`` follows the recursive-matrix construction (the
standard synthetic stand-in for social/web graphs); ``uniform_graph``
provides the low-skew contrast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from ..sim import DeterministicRNG


@dataclass
class Graph:
    """A simple directed graph in adjacency-list form."""

    n: int
    adj: List[List[int]]
    weights: Optional[List[List[int]]] = None

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adj)

    def out_degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> List[int]:
        return self.adj[v]

    def weight(self, v: int, i: int) -> int:
        if self.weights is None:
            return 1
        return self.weights[v][i]

    def undirected(self) -> "Graph":
        """Symmetrized copy (used by wcc and bfs)."""
        adj: List[Set[int]] = [set() for _ in range(self.n)]
        for u in range(self.n):
            for v in self.adj[u]:
                if u != v:
                    adj[u].add(v)
                    adj[v].add(u)
        return Graph(self.n, [sorted(s) for s in adj])


def uniform_graph(
    n: int, avg_degree: int, rng: DeterministicRNG,
    weighted: bool = False, max_weight: int = 16,
) -> Graph:
    """ErdHos-Renyi-style graph with roughly uniform out-degrees."""
    if n <= 1 or avg_degree < 1:
        raise ValueError("need n > 1 and avg_degree >= 1")
    adj: List[List[int]] = []
    weights: List[List[int]] = []
    for u in range(n):
        targets: Set[int] = set()
        for _ in range(avg_degree):
            v = rng.randint(0, n - 1)
            if v != u:
                targets.add(v)
        row = sorted(targets)
        adj.append(row)
        if weighted:
            weights.append([rng.randint(1, max_weight) for _ in row])
    return Graph(n, adj, weights if weighted else None)


def rmat_graph(
    n: int, avg_degree: int, rng: DeterministicRNG,
    a: float = 0.57, b: float = 0.19, c: float = 0.19,
    weighted: bool = False, max_weight: int = 16,
) -> Graph:
    """R-MAT power-law graph (Chakrabarti et al. parameters by default)."""
    if n & (n - 1):
        raise ValueError("R-MAT size must be a power of two")
    levels = n.bit_length() - 1
    d = 1.0 - a - b - c
    if d < 0:
        raise ValueError("R-MAT probabilities must sum to <= 1")
    # An edge (u, v) is the int ``u << levels | v``: v < n, so the ints
    # sort as the pairs would.  Each level's draw sets the next lower bit
    # of v, of u, or of both; that level's row of ``bits`` holds those
    # bits already in their place in the code.
    bits = [
        (1 << k, 1 << (k + levels), 1 << k | 1 << (k + levels))
        for k in range(levels - 1, -1, -1)
    ]
    # u == v exactly when the code is a multiple of 2**levels + 1 (the
    # code is u * 2**levels + v, and 2**levels is -1 modulo that).
    loop_mod = (1 << levels) + 1
    edges: Set[int] = set()
    target_edges = n * avg_degree
    max_attempts = 10 * target_edges
    attempts = 0
    draw = rng.random_fn()
    ab = a + b
    abc = ab + c
    while len(edges) < target_edges and attempts < max_attempts:
        attempts += 1
        code = 0
        for v_bit, u_bit, uv_bits in bits:
            r = draw()
            if r < a:
                pass
            elif r < ab:
                code |= v_bit
            elif r < abc:
                code |= u_bit
            else:
                code |= uv_bits
        if code % loop_mod:
            edges.add(code)
    adj: List[List[int]] = [[] for _ in range(n)]
    mask = n - 1
    for edge in sorted(edges):
        adj[edge >> levels].append(edge & mask)
    weights = None
    if weighted:
        weights = [
            [rng.randint(1, max_weight) for _ in row] for row in adj
        ]
    return Graph(n, adj, weights)


def chain_graph(n: int) -> Graph:
    """A path graph; handy deterministic fixture for tests."""
    adj = [[i + 1] if i + 1 < n else [] for i in range(n)]
    return Graph(n, adj)
