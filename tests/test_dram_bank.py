"""Tests for the DRAM bank timing model and access arbitration."""

import pytest

from repro.config import default_config
from repro.dram import DRAMBank
from repro.sim import Simulator, StatsRegistry


def make_bank():
    cfg = default_config()
    return DRAMBank(Simulator(), cfg, StatsRegistry(), unit_id=0), cfg


def test_first_access_pays_activation():
    bank, cfg = make_bank()
    finish = bank.access(0, addr=0, nbytes=64, is_write=False,
                         bytes_per_cycle=8.0)
    # Starts at cycle 0, then tRCD + tCAS + 64/8 transfer cycles.
    assert finish == cfg.t_rcd_cycles + cfg.t_cas_cycles + 8
    assert bank.busy_until == finish


def test_row_hit_is_cheaper():
    bank, cfg = make_bank()
    a1 = bank.access(0, 0, 64, False, 8.0)
    a2 = bank.access(a1, 64, 64, False, 8.0)  # same 1 kB row
    # Each access starts at its issue cycle (0, then a1): the bank is free.
    assert a2 - a1 == cfg.t_cas_cycles + 8
    assert a2 - a1 < a1


def test_row_conflict_pays_precharge():
    bank, cfg = make_bank()
    a1 = bank.access(0, 0, 64, False, 8.0)
    a2 = bank.access(a1, 4096, 64, False, 8.0)  # different row
    assert a2 - a1 == cfg.t_rp_cycles + cfg.t_rcd_cycles + cfg.t_cas_cycles + 8


def test_accesses_serialize():
    bank, cfg = make_bank()
    a1 = bank.access(0, 0, 64, False, 8.0)
    a2 = bank.access(0, 64, 64, False, 8.0)  # issued at the same time
    # a2 waits for a1, then pays a row hit: it starts at a1's finish.
    assert a2 == a1 + cfg.t_cas_cycles + 8
    assert a2 > a1


def test_word_counters_split_by_master():
    bank, _ = make_bank()
    bank.access(0, 0, 64, False, 8.0, from_bridge=False)
    bank.access(0, 64, 128, True, 8.0, from_bridge=True)
    assert bank.total_reads_64bit == 8
    assert bank.total_writes_64bit == 16
    assert bank._local_words.value == 8
    assert bank._comm_words.value == 16
    # A partial word counts as a whole one: 9 bytes are 2 words.
    bank.access(0, 192, 9, False, 8.0, from_bridge=True)
    assert bank.total_reads_64bit == 10
    assert bank._comm_words.value == 18


def test_zero_byte_access_rejected():
    bank, _ = make_bank()
    with pytest.raises(ValueError):
        bank.access(0, 0, 0, False, 8.0)


def test_row_hit_miss_counters():
    bank, _ = make_bank()
    bank.access(0, 0, 64, False, 8.0)
    bank.access(0, 64, 64, False, 8.0)
    bank.access(0, 4096, 64, False, 8.0)
    assert bank._row_hits.value == 1
    assert bank._row_misses.value == 2


def test_write_to_read_turnaround():
    bank, cfg = make_bank()
    w = bank.access(0, 0, 64, True, 8.0)
    r_after_w = bank.access(w, 64, 64, False, 8.0)
    # Same row, but the read pays the tWTR bubble after a write.  Each
    # access starts at its issue cycle, the previous one's finish.
    assert r_after_w - w == cfg.t_cas_cycles + 8 + bank._t_wtr
    r_after_r = bank.access(r_after_w, 128, 64, False, 8.0)
    assert r_after_r - r_after_w == cfg.t_cas_cycles + 8
