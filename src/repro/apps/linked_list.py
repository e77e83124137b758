"""Linked-list traversal (``ll``).

Each linked list is fully stored in one NDP unit (the layout the paper
cites from [30], [57]): list ``i``'s nodes occupy a contiguous slot range
in its home bank, so a traversal is a chain of per-node tasks that all
enqueue locally -- zero cross-unit communication under static assignment,
exactly as the paper reports for ll.  Zipf-distributed queries make some
lists far hotter than others; with load balancing enabled, the hot lists'
node blocks can be lent out, pipelining their traversals across units.
"""

from __future__ import annotations

from typing import List

from ..runtime.task import Task
from ..workloads.zipf import ZipfGenerator, shuffled_identity
from .base import NDPApplication

#: Cycles to dereference and compare one list node.
NODE_COST = 12

#: Slots allocated per list (a power of two keeps lists block-aligned).
MAX_NODES = 64


class LinkedListApp(NDPApplication):
    name = "ll"
    supports_requests = True

    def __init__(
        self,
        n_lists: int = 2048,
        n_queries: int = 4096,
        skew: float = 1.0,
        min_nodes: int = 8,
        max_nodes: int = MAX_NODES,
        seed: int = 1,
    ):
        super().__init__(seed)
        if max_nodes > MAX_NODES:
            raise ValueError(f"lists are capped at {MAX_NODES} nodes")
        self.n_lists = n_lists
        self.n_queries = n_queries
        self.skew = skew
        self.min_nodes = min_nodes
        self.max_nodes = max_nodes
        self.lengths: List[int] = []
        self.visits_done = 0
        self.queries: List[int] = []
        self._perm: List[int] = []

    def build(self, system) -> None:
        # Round the list count up so every unit holds whole lists.
        units = system.partition.units
        per_unit = max(1, -(-self.n_lists // units))
        self.n_lists = per_unit * units
        gen_rng = self.rng.substream("lengths")
        self.lengths = [
            gen_rng.randint(self.min_nodes, self.max_nodes)
            for _ in range(self.n_lists)
        ]
        self.nodes = system.partition.allocate(
            "ll_nodes", self.n_lists * MAX_NODES, element_size=64
        )
        system.registry.register("ll_visit", self._visit)
        zipf = ZipfGenerator(self.n_lists, self.skew, self.rng.substream("q"))
        self._perm = shuffled_identity(self.n_lists, self.rng.substream("perm"))
        self.queries = [
            self._perm[rank] for rank in zipf.sample_many(self.n_queries)
        ]

    def _node_index(self, lst: int, pos: int) -> int:
        return lst * MAX_NODES + pos

    def _visit(self, ctx, task: Task) -> None:
        idx = self.index(self.nodes, task.data_addr)
        lst, pos = divmod(idx, MAX_NODES)
        self.visits_done += 1
        if pos + 1 < self.lengths[lst]:
            ctx.enqueue_task(
                "ll_visit", task.ts,
                self.addr(self.nodes, self._node_index(lst, pos + 1)),
                workload=NODE_COST, actual_cycles=NODE_COST,
                args=task.args, read_only=True,
            )
        else:
            self._request_end(task)

    def seed_tasks(self, system) -> None:
        for lst in self.queries:
            system.seed_task(Task(
                func="ll_visit", ts=0,
                data_addr=self.addr(self.nodes, self._node_index(lst, 0)),
                workload=NODE_COST, actual_cycles=NODE_COST,
                read_only=True,
            ))

    # -- request mode ----------------------------------------------------
    def request_keyspace(self) -> int:
        return self.n_lists

    def make_request_task(self, rank: int, req_id: int) -> Task:
        lst = self._perm[rank]
        return Task(
            func="ll_visit", ts=0,
            data_addr=self.addr(self.nodes, self._node_index(lst, 0)),
            workload=NODE_COST, actual_cycles=NODE_COST,
            args=(req_id,), read_only=True,
        )

    def request_span(self, rank: int) -> int:
        return self.lengths[self._perm[rank]]

    def request_visits(self) -> int:
        return self.visits_done

    def verify(self) -> bool:
        expected = sum(self.lengths[lst] for lst in self.queries)
        return self.visits_done == expected
