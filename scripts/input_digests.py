"""Print sha256 digests of two generated inputs, so that two interpreters
(or two trees) can be compared byte for byte without a run:

* ``requests``: ``repr`` of ``generate_requests`` for two tenants, one
  with a mid-stream skew shift and one with bursty arrivals (perfbench's
  open-tree-O stream);
* ``rmat``: the adjacency of ``rmat_graph(2048, 8, DeterministicRNG(17,
  "g"))``, the size of perfbench's closed-pr-B graph.

    PYTHONPATH=src python scripts/input_digests.py
"""

import hashlib

from repro.sim import DeterministicRNG
from repro.workloads import TenantSpec, generate_requests, rmat_graph

TENANTS = (
    TenantSpec(name="hot", n_requests=2000, mean_gap=200.0,
               skew=((0, 0.6), (150_000, 1.2))),
    TenantSpec(name="burst", n_requests=1020, mean_gap=400.0,
               arrival="bursty", burst_gap=80.0, skew=((0, 1.0),)),
)


def main() -> None:
    inputs = (
        ("requests", generate_requests(TENANTS, 1432, 17)),
        ("rmat", rmat_graph(2048, 8, DeterministicRNG(17, "g")).adj),
    )
    for label, data in inputs:
        print(label, hashlib.sha256(repr(data).encode()).hexdigest())


if __name__ == "__main__":
    main()
