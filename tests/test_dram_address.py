"""Tests for address mapping across the DRAM hierarchy."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import default_config, tiny_config
from repro.dram import AddressMap


def test_unit_coord_round_trip_default():
    amap = AddressMap(default_config())
    for unit in range(0, amap.total_units, 37):
        coord = amap.coord_of_unit(unit)
        assert amap.unit_of_coord(coord) == unit


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=511))
def test_unit_coord_round_trip_property(unit):
    amap = AddressMap(default_config())
    assert amap.unit_of_coord(amap.coord_of_unit(unit)) == unit


def test_coord_ranges():
    amap = AddressMap(default_config())
    coord = amap.coord_of_unit(511)
    assert coord.channel == 1
    assert coord.rank == 3
    assert coord.chip == 7
    assert coord.bank == 7


def test_units_are_contiguous_per_rank():
    amap = AddressMap(default_config())
    units = list(amap.units_in_rank(3))
    assert units == list(range(3 * 64, 4 * 64))
    for u in units:
        assert amap.rank_of_unit(u) == 3


def test_channel_of_rank():
    amap = AddressMap(default_config())
    assert amap.channel_of_rank(0) == 0
    assert amap.channel_of_rank(3) == 0
    assert amap.channel_of_rank(4) == 1
    assert amap.channel_of_rank(7) == 1


def test_addr_to_unit():
    cfg = default_config()
    amap = AddressMap(cfg)
    bank = amap.bank_bytes
    assert amap.unit_of_addr(0) == 0
    assert amap.unit_of_addr(bank - 1) == 0
    assert amap.unit_of_addr(bank) == 1
    assert amap.bank_offset(bank + 100) == 100


def test_addr_out_of_range():
    amap = AddressMap(tiny_config())
    with pytest.raises(ValueError):
        amap.unit_of_addr(amap.total_bytes)
    with pytest.raises(ValueError):
        amap.unit_of_addr(-1)
    with pytest.raises(ValueError):
        amap.coord_of_unit(amap.total_units)


def test_blocks():
    cfg = default_config()
    amap = AddressMap(cfg)
    g = cfg.comm.g_xfer_bytes
    assert amap.block_of_addr(0) == 0
    assert amap.block_of_addr(g - 1) == 0
    assert amap.block_of_addr(g) == 1
    assert amap.block_base(5) == 5 * g
    assert amap.unit_of_block(amap.block_of_addr(amap.bank_bytes)) == 1


def test_rank_of_block():
    cfg = default_config()
    amap = AddressMap(cfg)
    g = cfg.comm.g_xfer_bytes
    rank_bytes = cfg.topology.banks_per_rank * amap.bank_bytes
    assert amap.rank_of_block(0) == 0
    assert amap.rank_of_block(rank_bytes // g - 1) == 0
    assert amap.rank_of_block(rank_bytes // g) == 1
    last = amap.total_bytes // g - 1
    assert amap.rank_of_block(last) == cfg.topology.ranks - 1
    for block in (0, 12345, rank_bytes // g * 5 + 7, last):
        assert amap.rank_of_block(block) == amap.rank_of_unit(
            amap.unit_of_block(block)
        )


def test_rank_of_block_out_of_range():
    amap = AddressMap(tiny_config())
    with pytest.raises(ValueError, match="out of range"):
        amap.rank_of_block(amap.total_bytes // amap.block_bytes)
    with pytest.raises(ValueError, match="out of range"):
        amap.rank_of_block(-1)


def test_same_chip_and_rank():
    amap = AddressMap(default_config())
    # Units 0..7 are the 8 banks of chip 0 in rank 0.
    assert amap.same_chip(0, 7)
    assert not amap.same_chip(0, 8)
    assert amap.same_rank(0, 63)
    assert not amap.same_rank(0, 64)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**30 - 1))
def test_block_unit_consistency(addr):
    amap = AddressMap(tiny_config())
    addr = addr % amap.total_bytes
    block = amap.block_of_addr(addr)
    assert amap.unit_of_block(block) == amap.unit_of_addr(addr)
