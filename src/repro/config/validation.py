"""Configuration validation.

``validate_config`` raises :class:`ConfigError` with a precise message for
the first violated constraint.  Constraints encode physical requirements
from the paper (e.g. messages are 64 B and ``G_xfer`` must be a multiple of
them, Section V-B) plus basic sanity bounds.
"""

from __future__ import annotations

from ..messages.types import MESSAGE_BYTES
from .system import GATHER_HEADROOM_BLOCKS, Design, SystemConfig


class ConfigError(ValueError):
    """An invalid system configuration."""


def validate_config(cfg: SystemConfig) -> SystemConfig:
    """Check ``cfg`` for internal consistency; returns it unchanged."""
    topo = cfg.topology
    if topo.channels < 1:
        raise ConfigError("need at least one channel")
    if topo.ranks_per_channel < 1:
        raise ConfigError("need at least one rank per channel")
    if topo.chips_per_rank < 1 or topo.banks_per_chip < 1:
        raise ConfigError("need at least one chip and one bank per chip")
    if topo.dq_bits_per_chip * topo.chips_per_rank != topo.channel_bits:
        raise ConfigError(
            "chip DQ widths must tile the channel: "
            f"{topo.chips_per_rank} chips x {topo.dq_bits_per_chip} bits "
            f"!= {topo.channel_bits}-bit channel"
        )

    comm = cfg.comm
    if comm.g_xfer_bytes <= 0:
        raise ConfigError("G_xfer must be positive")
    if comm.g_xfer_bytes % MESSAGE_BYTES != 0:
        raise ConfigError(
            f"G_xfer ({comm.g_xfer_bytes}) must be a multiple of the "
            f"message size ({MESSAGE_BYTES})"
        )
    if comm.i_state_cycles <= 0:
        raise ConfigError("I_state must be positive")
    if comm.max_chunks_per_round < 1:
        raise ConfigError("a round must move at least one G_xfer chunk")
    if not (0.0 < comm.split_dimm_data_pin_fraction <= 1.0):
        raise ConfigError("split-DIMM data pin fraction must be in (0, 1]")

    if cfg.sketch.buckets < 1 or cfg.sketch.entries_per_bucket < 1:
        raise ConfigError("sketch must have at least one bucket and entry")
    if not cfg.sketch.decay_base > 1.0:
        raise ConfigError("sketch decay base must exceed 1.0")

    bal = cfg.balance
    if bal.enabled and cfg.design in (Design.C, Design.H, Design.R):
        raise ConfigError(
            f"design {cfg.design.value} cannot use dynamic load balancing"
        )
    if not (0.0 < bal.steal_fraction <= 1.0):
        raise ConfigError("steal fraction must be in (0, 1]")
    if bal.budget_w_th_multiple <= 0:
        raise ConfigError("budget multiple must be positive")
    if bal.metadata_scale <= 0:
        raise ConfigError("metadata scale must be positive")

    if cfg.unit_mem.mailbox_bytes < comm.g_xfer_bytes:
        raise ConfigError("unit mailbox must hold at least one G_xfer block")
    if cfg.bridge.scatter_buffer_bytes_per_bank < MESSAGE_BYTES:
        raise ConfigError("scatter buffer must hold at least one message")
    headroom = GATHER_HEADROOM_BLOCKS * comm.g_xfer_bytes
    if cfg.bridge.backup_buffer_bytes < headroom:
        raise ConfigError(
            f"bridge backup buffer ({cfg.bridge.backup_buffer_bytes} B) "
            f"must hold {GATHER_HEADROOM_BLOCKS} G_xfer blocks ({headroom} B)"
            ", or no level-1 round ever gathers"
        )

    core = cfg.core
    if core.freq_mhz <= 0:
        raise ConfigError("core frequency must be positive")
    if not core.local_dma_bytes_per_cycle > 0:
        raise ConfigError("core DMA bandwidth must be positive")
    if core.dispatch_overhead_cycles < 0 or core.enqueue_overhead_cycles < 0:
        raise ConfigError(
            "core dispatch and enqueue overheads must be non-negative"
        )
    if cfg.seed < 0:
        raise ConfigError("seed must be non-negative")
    return cfg
