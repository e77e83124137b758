"""Tree traversal (``tree``) -- the paper's running example (Algorithm 1).

Each query starts at the root and spawns a child task wherever the next
node lives; since the BST is partitioned across banks by key range, the
upper levels of the tree constantly cross banks.  All queries enter at the
root's unit, making the root block extremely hot -- the showcase for both
bridge communication and hot-data scheduling.
"""

from __future__ import annotations

from typing import List

from ..runtime.task import Task
from ..workloads.trees import BinaryTree, balanced_bst, random_bst
from ..workloads.zipf import ZipfGenerator, shuffled_identity
from .base import NDPApplication

#: Cycles to load a node, compare the key and pick a child pointer.
NODE_COST = 24


class TreeApp(NDPApplication):
    name = "tree"
    supports_requests = True

    def __init__(
        self,
        n_nodes: int = 4095,
        n_queries: int = 2048,
        skew: float = 0.8,
        balanced: bool = True,
        seed: int = 1,
    ):
        super().__init__(seed)
        self.n_nodes = n_nodes
        self.n_queries = n_queries
        self.skew = skew
        self.balanced = balanced
        self.tree: BinaryTree = None
        self.queries: List[int] = []
        self.found = 0
        self.nodes_visited = 0
        self._perm: List[int] = []

    def build(self, system) -> None:
        if self.balanced:
            self.tree = balanced_bst(self.n_nodes)
        else:
            self.tree = random_bst(self.n_nodes, self.rng.substream("tree"))
        self.nodes = system.partition.allocate(
            "tree_nodes", self.n_nodes, element_size=32
        )
        system.registry.register("tree_trav", self._traverse)
        zipf = ZipfGenerator(self.n_nodes, self.skew, self.rng.substream("q"))
        self._perm = shuffled_identity(self.n_nodes, self.rng.substream("perm"))
        self.queries = [
            self._perm[rank] for rank in zipf.sample_many(self.n_queries)
        ]

    def _traverse(self, ctx, task: Task) -> None:
        """Direct transcription of the paper's Algorithm 1."""
        node = self.index(self.nodes, task.data_addr)
        query = task.args[0]
        self.nodes_visited += 1
        key = self.tree.keys[node]
        if key == query:
            self.found += 1
            self._request_end(task)
            return
        child = self.tree.left[node] if query < key else self.tree.right[node]
        if child != -1:
            ctx.enqueue_task(
                "tree_trav", task.ts,
                self.addr(self.nodes, child),
                workload=NODE_COST, actual_cycles=NODE_COST,
                args=task.args, read_only=True,
            )
        else:
            self._request_end(task)

    def seed_tasks(self, system) -> None:
        root_addr = self.addr(self.nodes, self.tree.root)
        for query in self.queries:
            system.seed_task(Task(
                func="tree_trav", ts=0, data_addr=root_addr,
                workload=NODE_COST, actual_cycles=NODE_COST,
                args=(query,), read_only=True,
            ))

    # -- request mode ----------------------------------------------------
    def request_keyspace(self) -> int:
        return self.n_nodes

    def make_request_task(self, rank: int, req_id: int) -> Task:
        return Task(
            func="tree_trav", ts=0,
            data_addr=self.addr(self.nodes, self.tree.root),
            workload=NODE_COST, actual_cycles=NODE_COST,
            args=(self._perm[rank], req_id), read_only=True,
        )

    def request_span(self, rank: int) -> int:
        return len(self.tree.search_path(self._perm[rank]))

    def request_visits(self) -> int:
        return self.nodes_visited

    def verify(self) -> bool:
        expected_visits = sum(
            len(self.tree.search_path(q)) for q in self.queries
        )
        # Every query key exists in the tree, so all must be found.
        return (
            self.found == len(self.queries)
            and self.nodes_visited == expected_visits
        )
