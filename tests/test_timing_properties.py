"""Property-based timing invariants for banks and links."""

from hypothesis import given, settings, strategies as st

from repro.config import default_config
from repro.dram import DRAMBank
from repro.links import Link
from repro.sim import Simulator, StatsRegistry

access_spec = st.tuples(
    st.integers(min_value=0, max_value=1 << 20),   # address
    st.integers(min_value=1, max_value=2048),      # bytes
    st.booleans(),                                 # is_write
    st.integers(min_value=0, max_value=500),       # issue-gap cycles
)


def service_cycles(cfg, bank, addr, nbytes, is_write):
    """Cycles an access to ``addr`` will hold the bank, from its row
    state now: tWTR after a write, tRP + tRCD on a row conflict (tRCD
    alone on a closed bank), tCAS, then the transfer at 8 B/cycle."""
    row = addr // cfg.dram.row_bytes
    cycles = cfg.t_cas_cycles + max(1, -(-nbytes // 8))
    if bank._last_was_write and not is_write:
        cycles += bank._t_wtr
    if bank.open_row != row:
        cycles += cfg.t_rcd_cycles
        if bank.open_row is not None:
            cycles += cfg.t_rp_cycles
    return cycles


@settings(max_examples=40, deadline=None)
@given(st.lists(access_spec, min_size=1, max_size=40))
def test_bank_accesses_never_overlap(accesses):
    cfg = default_config()
    bank = DRAMBank(Simulator(), cfg, StatsRegistry(), 0)
    now = 0
    prev_finish = 0
    for addr, nbytes, is_write, gap in accesses:
        now += gap
        service = service_cycles(cfg, bank, addr, nbytes, is_write)
        finish = bank.access(now, addr, nbytes, is_write, 8.0)
        # Serialization: the access starts at the later of its issue and
        # the previous finish (so no earlier than either), and it ends
        # after its service time, which is positive.
        start = max(now, prev_finish)
        assert finish == start + service
        assert service > 0
        prev_finish = finish


@settings(max_examples=40, deadline=None)
@given(st.lists(access_spec, min_size=2, max_size=40))
def test_row_hit_never_slower_than_miss(accesses):
    cfg = default_config()
    bank = DRAMBank(Simulator(), cfg, StatsRegistry(), 0)
    # Prime a row, then every same-row read must not exceed the
    # conflict-path latency for the same size.
    for addr, nbytes, is_write, gap in accesses:
        # Issued when the bank frees, the access starts at its issue.
        start = bank.busy_until
        finish = bank.access(start, addr, nbytes, is_write, 8.0)
        worst = (
            cfg.t_rp_cycles + cfg.t_rcd_cycles + cfg.t_cas_cycles
            + bank._t_wtr + (nbytes // 8) + 2
        )
        assert finish - start <= worst


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.integers(min_value=1, max_value=4096),
              st.integers(min_value=0, max_value=300)),
    min_size=1, max_size=40,
))
def test_link_transfers_serialize_and_count(transfers):
    link = Link(Simulator(), StatsRegistry(), "l", 6.0)
    now = 0
    prev_finish = 0
    total = 0
    for nbytes, gap in transfers:
        now += gap
        finish = link.transfer(now, nbytes)
        start = max(now, prev_finish)
        assert finish >= start + 1
        assert finish - start >= nbytes / 6.0 - 1
        prev_finish = finish
        total += nbytes
    assert link.total_bytes == total


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=10_000),
       st.floats(min_value=0.5, max_value=64.0,
                 allow_nan=False, allow_infinity=False))
def test_transfer_cycles_monotone_in_size(nbytes, bpc):
    link = Link(Simulator(), StatsRegistry(), "l", bpc)
    assert link.transfer_cycles(nbytes) <= link.transfer_cycles(nbytes + 64)
    assert link.transfer_cycles(nbytes) >= 1
