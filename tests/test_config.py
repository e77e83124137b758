"""Tests for configuration presets and validation (paper Table I)."""

import dataclasses
import re
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro import make_app, run_app
from repro.config import (
    ConfigError,
    Design,
    SketchConfig,
    SystemConfig,
    TriggerMode,
    default_config,
    scaled_config,
    small_config,
    tiny_config,
    validate_config,
)


def test_default_matches_table_i():
    cfg = default_config()
    assert cfg.topology.channels == 2
    assert cfg.topology.ranks_per_channel == 4
    assert cfg.topology.chips_per_rank == 8
    assert cfg.topology.banks_per_chip == 8
    assert cfg.topology.total_units == 512
    assert cfg.topology.bank_capacity_mb == 64
    assert cfg.core.freq_mhz == 400
    assert cfg.comm.g_xfer_bytes == 256
    assert cfg.comm.i_state_cycles == 2000
    assert cfg.sketch.buckets == 16
    assert cfg.sketch.entries_per_bucket == 16
    validate_config(cfg)


def test_link_bandwidths():
    cfg = default_config()
    # DDR4-2400, x8 chip: 2.4 GB/s = 6 bytes per 2.5 ns core cycle.
    assert cfg.chip_link_bytes_per_cycle == pytest.approx(6.0)
    # 64-bit channel: 19.2 GB/s = 48 bytes per cycle.
    assert cfg.channel_bytes_per_cycle == pytest.approx(48.0)
    # 17 ns at 400 MHz is 7 cycles.
    assert cfg.t_cas_cycles == 7


def test_design_matrix():
    base = default_config()
    assert not base.with_design(Design.C).balance.enabled
    assert not base.with_design(Design.B).balance.enabled
    w = base.with_design(Design.W)
    assert w.balance.enabled
    assert not w.balance.advance_trigger
    assert not w.balance.fine_grained
    assert not w.balance.hot_selection
    assert w.balance.workload_correction
    o = base.with_design(Design.O)
    assert o.balance.enabled
    assert o.balance.advance_trigger
    assert o.balance.fine_grained
    assert o.balance.hot_selection


def test_scaled_configs():
    for units in (64, 128, 256, 512, 1024):
        cfg = scaled_config(units)
        assert cfg.topology.total_units == units
        validate_config(cfg)
    # 0 and -64 are multiples of 64 but name no rank at all.
    for units in (100, 0, -64, -1):
        with pytest.raises(ValueError):
            scaled_config(units)


def _comm(cfg, **changes):
    return cfg.replace(comm=replace(cfg.comm, **changes))


def test_dq_width_configs():
    # Fig. 15: the channel stays 64 bits wide, so a rank has 64 / width
    # chips and the bank count scales inversely with chip width.
    base = default_config()

    def width(dq_bits, chips):
        return base.replace(topology=replace(
            base.topology, dq_bits_per_chip=dq_bits, chips_per_rank=chips,
        ))

    x4 = validate_config(width(4, 16))
    assert x4.topology.total_units == 1024
    assert x4.chip_link_bytes_per_cycle == pytest.approx(3.0)
    x16 = validate_config(width(16, 4))
    assert x16.topology.total_units == 256
    assert x16.chip_link_bytes_per_cycle == pytest.approx(12.0)
    with pytest.raises(ConfigError, match="must tile the channel"):
        validate_config(width(16, 8))


def test_split_dimm_reduces_bandwidth():
    base = default_config()
    cfg = validate_config(_comm(base, split_dimm=True))
    assert cfg.chip_link_bytes_per_cycle == pytest.approx(
        0.75 * base.chip_link_bytes_per_cycle
    )


def test_trigger_mode_config():
    cfg = validate_config(
        _comm(default_config(), trigger_mode=TriggerMode.FIXED_2X)
    )
    assert cfg.comm.trigger_mode is TriggerMode.FIXED_2X


def test_gxfer_config_validation():
    base = default_config()
    cfg = validate_config(_comm(base, g_xfer_bytes=1024).replace(
        balance=replace(base.balance, metadata_scale=4.0)
    ))
    assert cfg.comm.g_xfer_bytes == 1024
    assert cfg.balance.metadata_scale == 4.0
    with pytest.raises(ConfigError, match="multiple of the message size"):
        validate_config(_comm(base, g_xfer_bytes=100))
    for g_xfer in (0, -64):  # both multiples of 64, neither a block size
        with pytest.raises(ConfigError, match="G_xfer must be positive"):
            validate_config(_comm(base, g_xfer_bytes=g_xfer))


@pytest.mark.parametrize("g_xfer,backup,ok", [
    (16_384, 64 * 1024, True),    # exactly 4 blocks of headroom
    (16_448, 64 * 1024, False),   # pr on B and O stalled at 1,002,000
    (32_768, 64 * 1024, False),
    (256, 1024, True),
    (256, 960, False),            # pr on B stalled
])
def test_backup_buffer_must_leave_gather_headroom(g_xfer, backup, ok):
    """A level-1 bridge gathers only while its backup buffer has
    GATHER_HEADROOM_BLOCKS (4) G_xfer blocks free, so a smaller buffer
    would make every run stall instead of failing at the config."""
    cfg = _comm(tiny_config(Design.B), g_xfer_bytes=g_xfer)
    cfg = cfg.replace(bridge=replace(cfg.bridge, backup_buffer_bytes=backup))
    if ok:
        run_app(make_app("pr", scale=0.05), cfg)  # gathers, so it drains
        return
    with pytest.raises(ConfigError, match="no level-1 round ever gathers"):
        validate_config(cfg)
    with pytest.raises(ConfigError, match="no level-1 round ever gathers"):
        run_app(make_app("pr", scale=0.05), cfg)


def test_istate_and_sketch_configs():
    base = default_config()
    assert validate_config(
        _comm(base, i_state_cycles=500)
    ).comm.i_state_cycles == 500
    sk = validate_config(base.replace(
        sketch=SketchConfig(buckets=8, entries_per_bucket=32)
    ))
    assert sk.sketch.buckets == 8
    assert sk.sketch.entries_per_bucket == 32
    with pytest.raises(ConfigError, match="I_state must be positive"):
        validate_config(_comm(base, i_state_cycles=0))


def test_validation_rejects_bad_topology():
    cfg = default_config()
    bad = cfg.replace(
        topology=cfg.topology.__class__(chips_per_rank=3)
    )
    with pytest.raises(ConfigError):
        validate_config(bad)


def test_validation_rejects_zero_chunks_per_round():
    cfg = default_config()
    validate_config(cfg.replace(
        comm=dataclasses.replace(cfg.comm, max_chunks_per_round=1)
    ))
    with pytest.raises(ConfigError, match="at least one G_xfer chunk"):
        validate_config(cfg.replace(
            comm=dataclasses.replace(cfg.comm, max_chunks_per_round=0)
        ))


def test_every_config_field_is_read():
    """A settable field that no module reads is a knob that does nothing:
    each field of each config dataclass must appear as ``.<field>``
    somewhere in the package (validation alone does not count)."""
    root = Path(repro.__file__).parent
    source = "\n".join(
        path.read_text() for path in sorted(root.rglob("*.py"))
        if path != root / "config" / "validation.py"
    )
    classes = [SystemConfig] + [
        f.default_factory for f in dataclasses.fields(SystemConfig)
        if dataclasses.is_dataclass(f.default_factory)
    ]
    unread = [
        f"{cls.__name__}.{f.name}"
        for cls in classes for f in dataclasses.fields(cls)
        if not re.search(rf"\.{f.name}\b", source)
    ]
    assert unread == []


@pytest.mark.parametrize("field,value,match", [
    ("local_dma_bytes_per_cycle", 0.0, "DMA bandwidth must be positive"),
    ("local_dma_bytes_per_cycle", -2.0, "DMA bandwidth must be positive"),
    ("dispatch_overhead_cycles", -1, "overheads must be non-negative"),
    ("enqueue_overhead_cycles", -1, "overheads must be non-negative"),
])
def test_validation_rejects_bad_core_constants(field, value, match):
    """Each of these used to crash mid-run or silently skew the result."""
    cfg = tiny_config(Design.B)
    bad = cfg.replace(core=replace(cfg.core, **{field: value}))
    with pytest.raises(ConfigError, match=match):
        validate_config(bad)
    with pytest.raises(ConfigError, match=match):
        run_app(make_app("tree", scale=0.05, seed=7), bad)
    # The boundary stays valid: free dispatch and enqueue.
    validate_config(cfg.replace(core=replace(
        cfg.core, dispatch_overhead_cycles=0, enqueue_overhead_cycles=0,
    )))


def test_validation_rejects_lb_on_design_c():
    cfg = default_config(Design.C)
    bad = cfg.replace(balance=cfg.balance.__class__(enabled=True))
    with pytest.raises(ConfigError):
        validate_config(bad)


def test_small_and_tiny_are_valid():
    validate_config(small_config())
    validate_config(tiny_config())
    assert small_config().topology.total_units == 64
    assert tiny_config().topology.total_units == 16
