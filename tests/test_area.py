"""Tests for the Section V-A area model."""

from dataclasses import replace

import pytest

from repro.config import default_config
from repro.energy.area import (
    BUFFER_CHIP_MM2,
    bridge_sram_bytes,
    estimate_area,
    unit_sram_bytes,
)


def test_default_bridge_sram_matches_table_i():
    cfg = default_config()
    # 64 kB scatter + 64 kB backup + 128 kB mailbox + 1 MB dataBorrowed.
    expected = (64 + 64 + 128 + 1024) * 1024
    assert bridge_sram_bytes(cfg) == expected


def test_default_unit_sram_close_to_paper():
    cfg = default_config()
    # Paper: ~20.2 kB per unit (2 kB isLent + 16 kB dataBorrowed + sketch
    # + small counters/bitmaps).
    kb = unit_sram_bytes(cfg) / 1024
    assert 18 <= kb <= 23


def test_bridge_area_fraction_near_paper():
    area = estimate_area(default_config())
    # Paper: 1.46% of the rank buffer chip for logic + SRAM.
    assert area.bridge_buffer_chip_fraction == pytest.approx(0.015, abs=0.005)
    assert area.bridge_total_mm2 < BUFFER_CHIP_MM2


def test_unit_area_is_small():
    area = estimate_area(default_config())
    assert area.unit_total_mm2 < 0.05
    assert area.unit_logic_mm2 < area.unit_sram_mm2


def test_metadata_scale_scales_area():
    base = default_config()

    def scaled(metadata_scale):
        return estimate_area(base.replace(
            balance=replace(base.balance, metadata_scale=metadata_scale)
        ))

    small = scaled(0.25)
    big = scaled(4.0)
    assert big.unit_sram_mm2 > small.unit_sram_mm2
    assert big.bridge_sram_mm2 > small.bridge_sram_mm2


def test_split_dimm_adds_logic():
    base = default_config()
    unified = estimate_area(base)
    split = estimate_area(
        base.replace(comm=replace(base.comm, split_dimm=True))
    )
    assert split.bridge_logic_mm2 > unified.bridge_logic_mm2
    assert split.bridge_sram_mm2 == unified.bridge_sram_mm2
