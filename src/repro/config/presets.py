"""Named configuration presets matching the paper's evaluated systems."""

from __future__ import annotations

from dataclasses import replace

from .system import (
    BalanceConfig,
    CommConfig,
    Design,
    SketchConfig,
    SystemConfig,
    TopologyConfig,
    TriggerMode,
)


def default_config(design: Design = Design.O, seed: int = 42) -> SystemConfig:
    """The paper's default 512-unit Table-I system."""
    return SystemConfig(seed=seed).with_design(design)


def small_config(design: Design = Design.O, seed: int = 42) -> SystemConfig:
    """A 64-unit single-channel, single-rank system for tests/examples."""
    topo = TopologyConfig(channels=1, ranks_per_channel=1)
    return SystemConfig(topology=topo, seed=seed).with_design(design)


def tiny_config(design: Design = Design.O, seed: int = 42) -> SystemConfig:
    """A 16-unit system (1 channel, 1 rank, 4 chips, 4 banks) for unit tests."""
    topo = TopologyConfig(
        channels=1, ranks_per_channel=1, chips_per_rank=4, banks_per_chip=4,
        channel_bits=32,
    )
    return SystemConfig(topology=topo, seed=seed).with_design(design)


def scaled_config(
    num_units: int, design: Design = Design.O, seed: int = 42
) -> SystemConfig:
    """Scaling study configurations (Fig. 12): 64 to 1024+ units.

    The paper keeps 64 units per rank and varies the rank count from 1 to
    16, splitting ranks evenly over at most 2 channels.
    """
    if num_units % 64 != 0:
        raise ValueError("scaling configs use 64 units (one rank) per step")
    ranks = num_units // 64
    if ranks <= 1:
        topo = TopologyConfig(channels=1, ranks_per_channel=1)
    elif ranks % 2 == 0:
        topo = TopologyConfig(channels=2, ranks_per_channel=ranks // 2)
    else:
        topo = TopologyConfig(channels=1, ranks_per_channel=ranks)
    return SystemConfig(topology=topo, seed=seed).with_design(design)


def dq_width_config(
    dq_bits: int, design: Design = Design.O, seed: int = 42
) -> SystemConfig:
    """x4/x8/x16 DRAM chip configurations (Fig. 15).

    The channel stays 64 bits wide and the rank count is unchanged, so the
    chip count per rank is ``64 / dq_bits`` and the total bank count scales
    inversely with chip width (1024 / 512 / 256 banks).
    """
    if dq_bits not in (4, 8, 16):
        raise ValueError("dq_bits must be one of 4, 8, 16")
    topo = TopologyConfig(dq_bits_per_chip=dq_bits, chips_per_rank=64 // dq_bits)
    return SystemConfig(topology=topo, seed=seed).with_design(design)


def split_dimm_config(design: Design = Design.O, seed: int = 42) -> SystemConfig:
    """Split data-buffer DIMM with chameleon-s DQ multiplexing (Sec. V-A).

    Two of the eight DQ pins of each chip are dedicated to C/A dispatch, so
    the unit<->bridge data bandwidth drops to 6/8 of the default.
    """
    cfg = default_config(design, seed)
    comm = replace(cfg.comm, split_dimm=True)
    return cfg.replace(comm=comm)


def dimm_link_config(design: Design = Design.O, seed: int = 42) -> SystemConfig:
    """NDPBridge in tandem with DIMM-Link-style inter-rank links.

    The paper positions DIMM-Link [89] / ABC-DIMM [73] as orthogonal: they
    provide inter-DIMM physical links that the level-2 bridge can use
    instead of routing cross-rank traffic through the host and its memory
    channels.
    """
    cfg = default_config(design, seed)
    return cfg.replace(comm=replace(cfg.comm, inter_rank_links=True))


def trigger_mode_config(
    mode: TriggerMode, design: Design = Design.O, seed: int = 42
) -> SystemConfig:
    """Fixed-interval vs dynamic communication triggering (Fig. 14(b))."""
    cfg = default_config(design, seed)
    return cfg.replace(comm=replace(cfg.comm, trigger_mode=mode))


def gxfer_config(
    g_xfer_bytes: int,
    metadata_scale: float = 1.0,
    design: Design = Design.O,
    seed: int = 42,
) -> SystemConfig:
    """G_xfer / metadata-capacity sweep (Fig. 16(a))."""
    if g_xfer_bytes % 64 != 0:
        raise ValueError("G_xfer must be a multiple of the 64 B message size")
    cfg = default_config(design, seed)
    comm = replace(cfg.comm, g_xfer_bytes=g_xfer_bytes)
    balance = replace(cfg.balance, metadata_scale=metadata_scale)
    return cfg.replace(comm=comm, balance=balance)


def istate_config(
    i_state_cycles: int, design: Design = Design.O, seed: int = 42
) -> SystemConfig:
    """State-gathering interval sweep (Fig. 16(b))."""
    if i_state_cycles <= 0:
        raise ValueError("I_state must be positive")
    cfg = default_config(design, seed)
    return cfg.replace(comm=replace(cfg.comm, i_state_cycles=i_state_cycles))


def sketch_config(
    buckets: int, entries_per_bucket: int,
    design: Design = Design.O, seed: int = 42,
) -> SystemConfig:
    """Sketch geometry sweep (Fig. 16(c,d))."""
    cfg = default_config(design, seed)
    sketch = SketchConfig(buckets=buckets, entries_per_bucket=entries_per_bucket)
    return cfg.replace(sketch=sketch)


def ablation_config(
    advance_trigger: bool = False,
    fine_grained: bool = False,
    hot_selection: bool = False,
    seed: int = 42,
    base: SystemConfig = None,
) -> SystemConfig:
    """Configurations between W (all off) and O (all on) for Fig. 14(a)."""
    cfg = base if base is not None else default_config(Design.W, seed)
    cfg = cfg.with_design(Design.W)
    balance = replace(
        cfg.balance,
        enabled=True,
        advance_trigger=advance_trigger,
        fine_grained=fine_grained,
        hot_selection=hot_selection,
    )
    design = Design.O if (advance_trigger and fine_grained and hot_selection) else Design.W
    return cfg.replace(balance=balance, design=design)
