"""Named configuration presets matching the paper's evaluated systems."""

from __future__ import annotations

from dataclasses import replace

from .system import Design, SystemConfig, TopologyConfig


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
    if num_units < 64:
        raise ValueError(
            f"scaling configs need at least 64 units (one rank), "
            f"got {num_units}"
        )
    if num_units % 64 != 0:
        raise ValueError("scaling configs use 64 units (one rank) per step")
    ranks = num_units // 64
    if ranks == 1:
        topo = TopologyConfig(channels=1, ranks_per_channel=1)
    elif ranks % 2 == 0:
        topo = TopologyConfig(channels=2, ranks_per_channel=ranks // 2)
    else:
        topo = TopologyConfig(channels=1, ranks_per_channel=ranks)
    return SystemConfig(topology=topo, seed=seed).with_design(design)


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
