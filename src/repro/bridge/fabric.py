"""Communication fabric assembly.

A *fabric* is the system's cross-unit message path.  ``build_fabric``
instantiates the one matching the configured design:

* designs B/W/O -> :class:`BridgeFabric` (level-1 bridges per rank plus a
  level-2 bridge when the system has more than one rank);
* design C -> :class:`~repro.bridge.host_path.HostForwardingFabric`;
* design R -> :class:`~repro.bridge.rowclone.RowCloneFabric`.
"""

from __future__ import annotations

from typing import List, Optional

from ..config import Design, SystemConfig
from ..messages import Message
from ..ndp.unit import NDPUnit
from ..sim import DeterministicRNG, Simulator, StatsRegistry
from .host_path import HostForwardingFabric
from .level1 import Level1Bridge
from .level2 import Level2Bridge
from .rowclone import RowCloneFabric


class BridgeFabric:
    """NDPBridge hardware: hierarchical bridges along the DRAM hierarchy."""

    #: Whether :meth:`try_direct` can ever take a message; a unit asks
    #: only a fabric that has a direct path.
    has_direct_path = False

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        stats: StatsRegistry,
        system: "object",
        rng: DeterministicRNG,
    ):
        self.sim = sim
        self.config = config
        self.rank_bridges: List[Level1Bridge] = [
            Level1Bridge(sim, config, stats, system, rank, rng)
            for rank in range(config.topology.ranks)
        ]
        #: Unit id -> the level-1 bridge of its rank.
        self._bridge_of_unit: List[Level1Bridge] = [
            self.rank_bridges[system.addr_map.rank_of_unit(uid)]
            for uid in range(config.topology.total_units)
        ]
        self.level2: Optional[Level2Bridge] = None
        if config.topology.ranks > 1:
            self.level2 = Level2Bridge(
                sim, config, stats, system, self.rank_bridges
            )
            for bridge in self.rank_bridges:
                bridge.on_up_push = self.level2.maybe_start_round

    def start(self) -> None:
        for bridge in self.rank_bridges:
            bridge.start()
        if self.level2 is not None:
            self.level2.start()

    def notify_enqueue(self, unit: NDPUnit) -> None:
        self._bridge_of_unit[unit.unit_id].notify_enqueue(unit)

    def try_direct(self, unit: NDPUnit, msg: Message) -> bool:
        return False


def build_fabric(
    sim: Simulator,
    config: SystemConfig,
    stats: StatsRegistry,
    system: "object",
    rng: DeterministicRNG,
):
    """Instantiate the communication fabric for the configured design."""
    design = config.design
    if design in (Design.B, Design.W, Design.O):
        return BridgeFabric(sim, config, stats, system, rng)
    if design is Design.C:
        return HostForwardingFabric(sim, config, stats, system)
    if design is Design.R:
        return RowCloneFabric(sim, config, stats, system)
    raise ValueError(
        f"design {design.value} does not run on the NDP system model"
    )
