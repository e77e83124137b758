"""Post-run energy accounting (Section VII / Fig. 13).

Energy is reconstructed from the run's statistics registry with the
constants of :class:`~repro.config.EnergyConfig`:

* **core + SRAM** -- busy core cycles at 10 mW plus per-access SRAM energy
  for the caches, sketch and metadata tables;
* **local DRAM** -- 64-bit bank words moved by the cores' own DMA;
* **communication DRAM** -- bank words moved by bridges/host gathers and
  scatters, plus bytes on the off-chip links;
* **static** -- leakage/background power of units and bridges over the
  makespan.

This mirrors the paper's four-way breakdown in Fig. 13.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import Design, SystemConfig
from ..sim import StatsRegistry


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy per component, in picojoules."""

    core_sram_pj: float
    local_dram_pj: float
    comm_dram_pj: float
    static_pj: float

    @property
    def total_pj(self) -> float:
        return (
            self.core_sram_pj + self.local_dram_pj
            + self.comm_dram_pj + self.static_pj
        )

    @property
    def total_uj(self) -> float:
        return self.total_pj * 1e-6

    def as_dict(self) -> dict:
        return {
            "core_sram_pj": self.core_sram_pj,
            "local_dram_pj": self.local_dram_pj,
            "comm_dram_pj": self.comm_dram_pj,
            "static_pj": self.static_pj,
            "total_pj": self.total_pj,
        }


def _mw_to_pj_per_cycle(milliwatts: float, cycle_ns: float) -> float:
    # 1 mW = 1e-3 J/s = 1e9 pJ/s; one cycle lasts cycle_ns * 1e-9 s.
    return milliwatts * cycle_ns


def account_energy(
    config: SystemConfig,
    stats: StatsRegistry,
    makespan_cycles: int,
    total_busy_cycles: int,
) -> EnergyBreakdown:
    """Build the four-way energy breakdown for one finished run."""
    e = config.energy
    cycle_ns = config.cycle_ns

    # The four machine-wide totals below, in one pass over the registry.
    sram_accesses, local_words, comm_words, link_bytes = stats.sum_suffixes(
        ".sram_accesses", ".local_words_64bit", ".comm_words_64bit", ".bytes"
    )

    # Core + SRAM.
    core_pj = total_busy_cycles * _mw_to_pj_per_cycle(
        e.core_power_mw, cycle_ns
    )
    core_sram_pj = core_pj + sram_accesses * e.sram_access_pj

    # DRAM bank words, split local vs communication.
    local_dram_pj = local_words * e.bank_access_pj_per_64bit
    comm_dram_pj = comm_words * e.bank_access_pj_per_64bit

    # Off-chip movement: every link byte recorded by any Link.
    comm_dram_pj += link_bytes * e.channel_pj_per_byte

    # Static power: all units plus one bridge per rank (and the level-2
    # logic, folded into the same constant) for the whole run.
    n_units = config.topology.total_units
    n_bridges = config.topology.ranks
    if config.design in (Design.B, Design.W, Design.O):
        static_mw = (
            n_units * e.static_power_mw_per_unit
            + n_bridges * e.static_power_mw_per_bridge
        )
    else:
        static_mw = n_units * e.static_power_mw_per_unit
    static_pj = makespan_cycles * _mw_to_pj_per_cycle(static_mw, cycle_ns)

    return EnergyBreakdown(
        core_sram_pj=core_sram_pj,
        local_dram_pj=local_dram_pj,
        comm_dram_pj=comm_dram_pj,
        static_pj=static_pj,
    )
