"""System configuration dataclasses (paper Table I).

Every knob the evaluation sweeps is an explicit field here.  The defaults
reproduce Table I of the paper: a 512-unit system (2 channels x 4 ranks x
8 chips x 8 banks), UPMEM-style 400 MHz in-order cores, DDR4-2400 links,
17 ns CAS/RCD/RP, ``G_xfer`` = 256 B and ``I_state`` = 2000 cycles.

Table I also lists parts that no module models, so they have no field:
a 32 kB L1-I per unit (task code is taken to be resident), 10 mW per
core (the energy model reads ``EnergyConfig.core_power_mw``), and the
host's 2.6 GHz clock, 20 MB LLC and two memory channels (the host model
reads ``speedup_vs_ndp_core`` and ``mem_bandwidth_gb_s`` instead).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace


class Design(enum.Enum):
    """The evaluated system designs (paper Table II plus H and R).

    * ``C``  -- cross-unit messages forwarded by the host CPU, no balancing.
    * ``B``  -- NDPBridge hardware bridges, no balancing.
    * ``W``  -- bridges + traditional work stealing (with workload
      correction, as in the paper).
    * ``O``  -- full NDPBridge: bridges + data-transfer-aware balancing.
    * ``H``  -- host-only execution, no NDP (separate model).
    * ``R``  -- RowClone intra-chip bank-to-bank copy; inter-chip via host.
    """

    C = "C"
    B = "B"
    W = "W"
    O = "O"  # noqa: E741 - paper's name
    H = "H"
    R = "R"


class TriggerMode(enum.Enum):
    """Message gather/scatter triggering policy (Section V-C)."""

    DYNAMIC = "dynamic"      # the paper's scheme
    FIXED = "fixed"          # every I_min
    FIXED_2X = "fixed_2x"    # every 2 * I_min


@dataclass(frozen=True)
class TopologyConfig:
    """Physical organization of the memory system.

    ``ranks_per_channel`` counts every rank a channel addresses across all
    of its DIMMs (ranks on one channel share its bus either way).
    """

    channels: int = 2
    ranks_per_channel: int = 4
    chips_per_rank: int = 8
    banks_per_chip: int = 8
    dq_bits_per_chip: int = 8       # x4 / x8 / x16 parts
    channel_bits: int = 64
    mega_transfers_per_s: int = 2400
    bank_capacity_mb: int = 64

    @property
    def ranks(self) -> int:
        return self.channels * self.ranks_per_channel

    @property
    def banks_per_rank(self) -> int:
        return self.chips_per_rank * self.banks_per_chip

    @property
    def total_units(self) -> int:
        return self.ranks * self.banks_per_rank


@dataclass(frozen=True)
class CoreConfig:
    """The wimpy in-order NDP core (UPMEM-like)."""

    freq_mhz: int = 400
    dispatch_overhead_cycles: int = 8   # fetch task descriptor + setup
    enqueue_overhead_cycles: int = 4    # build + push one child task
    local_dma_bytes_per_cycle: float = 2.0  # core <-> local bank bandwidth

    @property
    def cycle_ns(self) -> float:
        return 1000.0 / self.freq_mhz


@dataclass(frozen=True)
class DRAMTimingConfig:
    """Per-bank DDR timings (Table I: 17 ns CAS/RCD/RP)."""

    t_rcd_ns: float = 17.0
    t_cas_ns: float = 17.0
    t_rp_ns: float = 17.0
    row_bytes: int = 1024               # one DRAM row per bank per chip
    # Write-to-read turnaround bubble on the bank data bus (tWTR-ish).
    t_wtr_ns: float = 7.5

    def cycles(self, ns: float, cycle_ns: float) -> int:
        return max(1, math.ceil(ns / cycle_ns))


@dataclass(frozen=True)
class SRAMConfig:
    """Per-unit SRAM structures (Table I)."""

    l1d_kb: int = 64
    islent_bytes: int = 2 * 1024
    databorrowed_bytes: int = 16 * 1024
    databorrowed_ways: int = 8


@dataclass(frozen=True)
class UnitMemConfig:
    """Per-unit in-DRAM regions (Table I)."""

    mailbox_bytes: int = 1024 * 1024
    borrowed_region_bytes: int = 1024 * 1024
    reserved_queue_chunks: int = 1280   # Section VI-C: ~10000 tasks


#: A level-1 bridge pauses gathering while its backup buffer has fewer
#: than this many ``G_xfer`` blocks free (Section V-A backpressure), so a
#: backup buffer smaller than this never lets a round gather.
GATHER_HEADROOM_BLOCKS = 4


@dataclass(frozen=True)
class BridgeConfig:
    """Level-1 (rank) bridge buffer sizes (Table I / Section V-A)."""

    scatter_buffer_bytes_per_bank: int = 1024
    backup_buffer_bytes: int = 64 * 1024
    mailbox_bytes: int = 128 * 1024
    databorrowed_bytes: int = 1024 * 1024
    databorrowed_ways: int = 16


@dataclass(frozen=True)
class SketchConfig:
    """HeavyGuardian-style hot-data sketch (Section VI-C)."""

    buckets: int = 16
    entries_per_bucket: int = 16
    counter_bytes: int = 1
    decay_base: float = 1.08

    @property
    def counter_max(self) -> int:
        return (1 << (8 * self.counter_bytes)) - 1


@dataclass(frozen=True)
class CommConfig:
    """Communication parameters (Sections V-B / V-C)."""

    g_xfer_bytes: int = 256
    #: Max G_xfer chunks moved per unit per round: a backlogged mailbox
    #: gets several consecutive GATHERs before the round moves on, so the
    #: granularity governs transfer efficiency, not peak rate.
    max_chunks_per_round: int = 8
    i_state_cycles: int = 2000
    trigger_mode: TriggerMode = TriggerMode.DYNAMIC
    # Host-forwarding path (design C / R inter-chip / level-2 software).
    # Polling every ~5 us and ~100 ns of software handling per message
    # reflect a host runtime that reads mailbox regions over DDR, parses,
    # routes and re-writes each message (UPMEM-style host interaction).
    host_poll_interval_cycles: int = 2000
    host_per_message_overhead_cycles: int = 40
    # The level-2 bridge is also host software in the evaluated setup, but
    # it only routes pre-parsed bridge messages with a table lookup in a
    # tight loop -- a few cycles, not the full forwarding path.
    l2_per_message_overhead_cycles: int = 4
    # Split-DIMM (chameleon-s) variant: 2 of 8 DQ pins carry C/A.
    split_dimm: bool = False
    split_dimm_data_pin_fraction: float = 0.75
    # DIMM-Link-style peer-to-peer links between ranks (Section V-A says
    # NDPBridge can work in tandem with them): cross-rank messages bypass
    # the host channel and its software routing.
    inter_rank_links: bool = False
    inter_rank_link_gb_s: float = 25.0


@dataclass(frozen=True)
class BalanceConfig:
    """Load-balancing policy configuration (Section VI)."""

    enabled: bool = False
    # Data-transfer-aware optimizations; all False == traditional work
    # stealing (design W, with workload correction per the paper).
    advance_trigger: bool = False   # +Adv: schedule before queue is empty
    fine_grained: bool = False      # +Fine: small budgets instead of half
    hot_selection: bool = False     # +Hot: sketch-guided block selection
    workload_correction: bool = True  # toArrive accounting (W and O both)
    steal_fraction: float = 0.5     # classic work stealing amount
    budget_w_th_multiple: float = 2.0  # fine-grained budget = k * W_th
    max_givers_per_receiver: int = 2
    # Scale factor for metadata table capacities (Fig. 16(a) sweep).
    metadata_scale: float = 1.0


@dataclass(frozen=True)
class EnergyConfig:
    """Energy model constants (Section VII).

    150 pJ per 64-bit bank read/write is from the UPMEM evaluation cited in
    the paper.  The channel transfer constant follows the off-chip movement
    number the paper takes from [25] (order of 10 pJ/bit); SRAM and static
    values are CACTI-flavoured estimates that only need to be consistent
    across designs.
    """

    bank_access_pj_per_64bit: float = 150.0
    channel_pj_per_byte: float = 10.0
    sram_access_pj: float = 5.0
    core_power_mw: float = 10.0
    static_power_mw_per_unit: float = 1.0
    static_power_mw_per_bridge: float = 5.0


@dataclass(frozen=True)
class HostConfig:
    """The host CPU used by designs C/R (forwarding) and H (execution)."""

    cores: int = 16
    # A 2.6 GHz OoO host core vs the 400 MHz in-order NDP core.  The
    # evaluated workloads are irregular and memory-latency-bound, where
    # out-of-order execution recovers little IPC, so the advantage is
    # close to the 6.5x frequency ratio rather than frequency x IPC.
    speedup_vs_ndp_core: float = 6.5
    mem_bandwidth_gb_s: float = 38.4  # 2 x DDR4-2400
    # Uncached access latency (~100 ns = 40 NDP cycles) and the memory-
    # level parallelism one core sustains on dependent-pointer code.
    mem_latency_cycles: int = 40
    mem_level_parallelism: int = 4


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration: everything needed to build one system."""

    design: Design = Design.O
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    core: CoreConfig = field(default_factory=CoreConfig)
    dram: DRAMTimingConfig = field(default_factory=DRAMTimingConfig)
    sram: SRAMConfig = field(default_factory=SRAMConfig)
    unit_mem: UnitMemConfig = field(default_factory=UnitMemConfig)
    bridge: BridgeConfig = field(default_factory=BridgeConfig)
    sketch: SketchConfig = field(default_factory=SketchConfig)
    comm: CommConfig = field(default_factory=CommConfig)
    balance: BalanceConfig = field(default_factory=BalanceConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    host: HostConfig = field(default_factory=HostConfig)
    seed: int = 42
    max_cycles: int = 2_000_000_000

    # ------------------------------------------------------------------
    # derived link speeds (bytes per NDP-core cycle)
    # ------------------------------------------------------------------
    @property
    def cycle_ns(self) -> float:
        return self.core.cycle_ns

    @property
    def chip_link_bytes_per_cycle(self) -> float:
        """Per-chip DQ slice bandwidth seen by the level-1 bridge."""
        bytes_per_s = self.topology.mega_transfers_per_s * 1e6 * (
            self.topology.dq_bits_per_chip / 8.0
        )
        bpc = bytes_per_s * self.cycle_ns * 1e-9
        if self.comm.split_dimm:
            bpc *= self.comm.split_dimm_data_pin_fraction
        return bpc

    @property
    def channel_bytes_per_cycle(self) -> float:
        """Full 64-bit channel bandwidth (level-1 <-> level-2 / host)."""
        bytes_per_s = self.topology.mega_transfers_per_s * 1e6 * (
            self.topology.channel_bits / 8.0
        )
        return bytes_per_s * self.cycle_ns * 1e-9

    @property
    def t_rcd_cycles(self) -> int:
        return self.dram.cycles(self.dram.t_rcd_ns, self.cycle_ns)

    @property
    def t_cas_cycles(self) -> int:
        return self.dram.cycles(self.dram.t_cas_ns, self.cycle_ns)

    @property
    def t_rp_cycles(self) -> int:
        return self.dram.cycles(self.dram.t_rp_ns, self.cycle_ns)

    def with_design(self, design: Design) -> "SystemConfig":
        """Return a copy configured for another design point (Table II)."""
        balance = self.balance
        comm = self.comm
        if design in (Design.C, Design.B, Design.R, Design.H):
            balance = replace(balance, enabled=False)
        elif design == Design.W:
            balance = replace(
                balance, enabled=True, advance_trigger=False,
                fine_grained=False, hot_selection=False,
            )
        elif design == Design.O:
            balance = replace(
                balance, enabled=True, advance_trigger=True,
                fine_grained=True, hot_selection=True,
            )
        return replace(self, design=design, balance=balance, comm=comm)

    def replace(self, **kwargs) -> "SystemConfig":
        """``dataclasses.replace`` convenience passthrough."""
        return replace(self, **kwargs)
