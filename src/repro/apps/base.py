"""Application base class.

Applications are written purely against the public programming model
(Section IV): they allocate partitioned arrays, register task functions,
and seed initial tasks.  The same application object runs unmodified on
every design, including the host-only design H.

Each app also carries a *reference implementation* used by ``verify`` to
check that the simulated distributed execution computed the right answer
-- the simulator moves real application state around, so correctness bugs
in routing/balancing surface as verification failures.
"""

from __future__ import annotations

import abc
from ..runtime.partition import DataArray
from ..sim import DeterministicRNG


class NDPApplication(abc.ABC):
    """One benchmark application in the task-based model."""

    #: Short name used in reports (matches the paper's naming).
    name: str = "app"

    #: Index apps override this to expose the request-mode entry point
    #: used by the open-loop driver (:mod:`repro.runtime.requests`).
    supports_requests: bool = False

    def __init__(self, seed: int = 1):
        self.seed = seed
        self.rng = DeterministicRNG(seed, f"app/{self.name}")
        self._system = None
        self._request_listener = None

    # -- lifecycle -----------------------------------------------------------
    def attach(self, system) -> None:
        """Allocate arrays, register task functions, build input data."""
        self._system = system
        self.build(system)

    @abc.abstractmethod
    def build(self, system) -> None:
        """App-specific setup (arrays + task function registration)."""

    @abc.abstractmethod
    def seed_tasks(self, system) -> None:
        """Inject the initial tasks."""

    @abc.abstractmethod
    def verify(self) -> bool:
        """Did the distributed run produce the reference answer?"""

    # -- request mode (open-loop driver) ---------------------------------
    # Closed-loop seeding stays the default; apps with
    # ``supports_requests`` additionally accept single requests injected
    # over time.  A request task carries its request id as the *last*
    # task argument, propagated unchanged down the task chain, and the
    # terminal task of the chain reports completion via
    # :meth:`_request_end`.  With no listener installed (every
    # closed-loop run) the whole path is a no-op.

    def request_keyspace(self) -> int:
        """Number of distinct Zipf ranks a request may address."""
        raise NotImplementedError(f"{self.name} has no request mode")

    def make_request_task(self, rank: int, req_id: int):
        """The seed task of one request against key ``rank``."""
        raise NotImplementedError(f"{self.name} has no request mode")

    def request_span(self, rank: int) -> int:
        """Reference task-chain length of a request against ``rank``."""
        raise NotImplementedError(f"{self.name} has no request mode")

    def request_visits(self) -> int:
        """Total chain steps executed so far (span accounting)."""
        raise NotImplementedError(f"{self.name} has no request mode")

    def set_request_listener(self, listener) -> None:
        """Install ``listener(req_id, completion_cycle)`` for chain ends."""
        self._request_listener = listener

    def _request_end(self, task) -> None:
        """A task chain terminated; report completion in request mode."""
        if self._request_listener is not None:
            self._request_listener(task.args[-1], self._system.sim.now)

    # -- helpers ---------------------------------------------------------
    def addr(self, arr: DataArray, index: int) -> int:
        return self._system.partition.addr_of(arr, index)

    def index(self, arr: DataArray, addr: int) -> int:
        return self._system.partition.index_of(arr, addr)

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(seed={self.seed})"
