"""Tests for the alternative communication fabrics (designs C and R)."""

import pytest

from repro.bridge.fabric import BridgeFabric
from repro.bridge.host_path import HostForwardingFabric
from repro.bridge.rowclone import RowCloneFabric
from repro.config import Design, tiny_config
from repro.runtime.system import NDPSystem
from repro.runtime.task import Task


def bank_addr(system, unit_id, offset=0):
    return unit_id * system.addr_map.bank_bytes + offset


def make_system(design):
    system = NDPSystem(tiny_config(design))
    system.registry.register("noop", lambda ctx, task: None)
    return system


class TestFabricSelection:
    def test_bridge_designs_get_bridge_fabric(self):
        for design in (Design.B, Design.W, Design.O):
            assert isinstance(make_system(design).fabric, BridgeFabric)

    def test_c_gets_host_fabric(self):
        fabric = make_system(Design.C).fabric
        assert isinstance(fabric, HostForwardingFabric)
        assert not isinstance(fabric, RowCloneFabric)

    def test_r_gets_rowclone_fabric(self):
        assert isinstance(make_system(Design.R).fabric, RowCloneFabric)

    def test_h_has_no_ndp_fabric(self):
        with pytest.raises(ValueError):
            NDPSystem(tiny_config(Design.H))


class TestHostForwarding:
    def test_remote_message_crosses_channel(self):
        sys_ = make_system(Design.C)

        def spawn(ctx, task):
            ctx.enqueue_task("noop", task.ts, bank_addr(sys_, 9))

        sys_.registry.register("spawn", spawn)
        sys_.seed_task(Task(func="spawn", ts=0, data_addr=bank_addr(sys_, 0)))
        sys_.run()
        assert sys_.units[9].tasks_executed == 1
        assert sys_.fabric.channel_links[0].total_bytes > 0
        assert sys_.stats.counter("host", "messages_forwarded").value >= 1

    def test_poll_interval_bounds_latency(self):
        sys_ = make_system(Design.C)

        def spawn(ctx, task):
            ctx.enqueue_task("noop", task.ts, bank_addr(sys_, 9))

        sys_.registry.register("spawn", spawn)
        sys_.seed_task(Task(func="spawn", ts=0, data_addr=bank_addr(sys_, 0),
                            workload=5))
        sys_.run()
        # Delivery needs at least one poll after the message is mailed.
        interval = sys_.config.comm.host_poll_interval_cycles
        assert sys_.makespan >= interval

    def test_host_overhead_serializes_many_messages(self):
        def run(n_children):
            sys_ = make_system(Design.C)

            def spray(ctx, task):
                for i in range(n_children):
                    ctx.enqueue_task(
                        "noop", task.ts, bank_addr(sys_, 1 + (i % 15)),
                        workload=1,
                    )

            sys_.registry.register("spray", spray)
            sys_.seed_task(Task(func="spray", ts=0,
                                data_addr=bank_addr(sys_, 0)))
            sys_.run()
            return sys_.makespan

        assert run(120) > run(4)


class TestRowClone:
    def test_same_chip_message_bypasses_host(self):
        sys_ = make_system(Design.R)

        def spawn(ctx, task):
            # Unit 1 is in the same chip as unit 0 (4 banks per chip).
            ctx.enqueue_task("noop", task.ts, bank_addr(sys_, 1))

        sys_.registry.register("spawn", spawn)
        sys_.seed_task(Task(func="spawn", ts=0, data_addr=bank_addr(sys_, 0)))
        sys_.run()
        assert sys_.stats.counter("rowclone", "intra_chip_copies").value == 1
        assert sys_.stats.counter("host", "messages_forwarded").value == 0

    def test_cross_chip_message_uses_host(self):
        sys_ = make_system(Design.R)

        def spawn(ctx, task):
            ctx.enqueue_task("noop", task.ts, bank_addr(sys_, 5))  # chip 1

        sys_.registry.register("spawn", spawn)
        sys_.seed_task(Task(func="spawn", ts=0, data_addr=bank_addr(sys_, 0)))
        sys_.run()
        assert sys_.stats.counter("rowclone", "intra_chip_copies").value == 0
        assert sys_.stats.counter("host", "messages_forwarded").value >= 1

    def test_intra_chip_is_faster_than_host_forwarding(self):
        def run(design):
            sys_ = make_system(design)

            def spawn(ctx, task):
                ctx.enqueue_task("noop", task.ts, bank_addr(sys_, 1))

            sys_.registry.register("spawn", spawn)
            sys_.seed_task(Task(func="spawn", ts=0,
                                data_addr=bank_addr(sys_, 0)))
            sys_.run()
            return sys_.makespan

        assert run(Design.R) < run(Design.C)


class TestHostAccessInefficiency:
    def test_host_transfers_charge_transposition_overhead(self):
        from repro.bridge.host_path import HOST_ACCESS_INEFFICIENCY

        sys_ = make_system(Design.C)

        def spawn(ctx, task):
            ctx.enqueue_task("noop", task.ts, bank_addr(sys_, 9))

        sys_.registry.register("spawn", spawn)
        sys_.seed_task(Task(func="spawn", ts=0,
                            data_addr=bank_addr(sys_, 0)))
        sys_.run()
        # One 64 B message crosses the channel twice, each inflated by
        # the transposition factor.
        chan = sys_.fabric.channel_links[0].total_bytes
        assert chan >= 2 * 64 * HOST_ACCESS_INEFFICIENCY

    def test_forwarding_threads_parallelize_batches(self):
        fabric = make_system(Design.C).fabric
        assert len(fabric._thread_busy) >= 2
