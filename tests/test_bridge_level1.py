"""Tests for the level-1 (rank) bridge: rounds, routing, backpressure."""

from repro.config import Design, TriggerMode, tiny_config
from repro.runtime.system import NDPSystem
from repro.runtime.task import Task

from .conftest import noop_task


def bank_addr(system, unit_id, offset=0):
    return unit_id * system.addr_map.bank_bytes + offset


def make_system(design=Design.B):
    system = NDPSystem(tiny_config(design))
    system.registry.register("noop", lambda ctx, task: None)
    return system


class TestRounds:
    def test_message_round_moves_mail(self):
        sys_ = make_system()
        sys_.seed_task(Task(func="spawn", ts=0,
                            data_addr=bank_addr(sys_, 0)))

        def spawn(ctx, task):
            ctx.enqueue_task("noop", task.ts, bank_addr(sys_, 9))

        sys_.registry.register("spawn", spawn)
        sys_.run()
        bridge = sys_.fabric.rank_bridges[0]
        assert bridge._stat_rounds.value >= 1
        assert sys_.units[9].tasks_executed == 1

    def test_state_rounds_happen_periodically(self):
        sys_ = make_system()
        sys_.seed_task(noop_task(bank_addr(sys_, 0), workload=10_000))
        sys_.run()
        bridge = sys_.fabric.rank_bridges[0]
        expected = sys_.makespan // sys_.config.comm.i_state_cycles
        assert bridge._stat_state_rounds.value >= expected - 1

    def test_dynamic_skips_empty_mailboxes(self):
        sys_ = make_system()
        sys_.seed_task(noop_task(bank_addr(sys_, 0), workload=5000))
        sys_.run()
        bridge = sys_.fabric.rank_bridges[0]
        assert bridge._stat_wasted_gathers.value == 0

    def test_fixed_mode_wastes_gathers(self):
        from dataclasses import replace

        cfg = tiny_config(Design.B)
        cfg = cfg.replace(
            comm=replace(cfg.comm, trigger_mode=TriggerMode.FIXED),
        )
        sys_ = NDPSystem(cfg)
        sys_.registry.register("noop", lambda ctx, task: None)

        def chat(ctx, task):
            if task.args[0] > 0:
                ctx.enqueue_task("chat", task.ts,
                                 bank_addr(sys_, task.args[0] % 16),
                                 workload=200, args=(task.args[0] - 1,))

        sys_.registry.register("chat", chat)
        sys_.seed_task(Task(func="chat", ts=0, data_addr=bank_addr(sys_, 0),
                            workload=200, args=(30,)))
        sys_.run()
        bridge = sys_.fabric.rank_bridges[0]
        assert bridge._stat_wasted_gathers.value > 0


class TestRouting:
    def test_chip_links_carry_traffic(self):
        sys_ = make_system()

        def spray(ctx, task):
            for u in range(1, 16):
                ctx.enqueue_task("noop", task.ts, bank_addr(sys_, u))

        sys_.registry.register("spray", spray)
        sys_.seed_task(Task(func="spray", ts=0, data_addr=bank_addr(sys_, 0)))
        sys_.run()
        bridge = sys_.fabric.rank_bridges[0]
        assert all(link.total_bytes > 0 for link in bridge.chip_links)
        assert bridge._stat_routed_local.value >= 15

    def test_single_rank_has_no_up_traffic(self):
        sys_ = make_system()

        def spray(ctx, task):
            for u in range(16):
                ctx.enqueue_task("noop", task.ts, bank_addr(sys_, u))

        sys_.registry.register("spray", spray)
        sys_.seed_task(Task(func="spray", ts=0, data_addr=bank_addr(sys_, 0)))
        sys_.run()
        bridge = sys_.fabric.rank_bridges[0]
        assert bridge._stat_routed_up.value == 0
        assert len(bridge.up_mailbox) == 0


class TestBackpressure:
    def test_scatter_overflow_goes_to_backup_and_recovers(self):
        from dataclasses import replace

        cfg = tiny_config(Design.B)
        # A 64 B scatter buffer forces overflow into the backup buffer.
        cfg = cfg.replace(
            bridge=replace(cfg.bridge, scatter_buffer_bytes_per_bank=64)
        )
        sys_ = NDPSystem(cfg)
        sys_.registry.register("noop", lambda ctx, task: None)

        def flood(ctx, task):
            for _ in range(20):
                ctx.enqueue_task("noop", task.ts, bank_addr(sys_, 9),
                                 workload=5)

        sys_.registry.register("flood", flood)
        sys_.seed_task(Task(func="flood", ts=0,
                            data_addr=bank_addr(sys_, 0)))
        sys_.run()
        assert sys_.units[9].tasks_executed == 20
        assert sys_.tracker.finished

    def test_i_min_reflects_round_duration(self):
        sys_ = make_system()
        bridge = sys_.fabric.rank_bridges[0]
        analytic = bridge._analytic_i_min()
        assert analytic > 0
        # One G_xfer transfer per bank per chip, gather + scatter.
        cfg = sys_.config
        per = cfg.t_rcd_cycles + cfg.t_cas_cycles + 43  # ceil(256/6)
        assert analytic == 2 * cfg.topology.banks_per_chip * per
