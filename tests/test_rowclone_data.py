"""Additional RowClone fabric coverage: bus contention and latency."""

from repro.bridge.rowclone import ROW_COPY_LATENCY
from repro.config import Design, tiny_config
from repro.runtime.system import NDPSystem
from repro.runtime.task import Task


def bank_addr(system, unit_id, offset=0):
    return unit_id * system.addr_map.bank_bytes + offset


def make_system():
    system = NDPSystem(tiny_config(Design.R))
    system.registry.register("noop", lambda ctx, task: None)
    return system


def test_copy_latency_floor():
    system = make_system()

    def spawn(ctx, task):
        ctx.enqueue_task("noop", task.ts, bank_addr(system, 1), workload=1)

    system.registry.register("spawn", spawn)
    system.seed_task(Task(func="spawn", ts=0, data_addr=bank_addr(system, 0),
                          workload=1))
    system.run()
    # The child cannot have run before the row-copy latency elapsed.
    assert system.makespan >= ROW_COPY_LATENCY


def test_chip_bus_serializes_copies():
    def run(n_msgs):
        system = make_system()

        def spray(ctx, task):
            for i in range(n_msgs):
                ctx.enqueue_task("noop", task.ts,
                                 bank_addr(system, 1 + i % 3, i * 256),
                                 workload=1)

        system.registry.register("spray", spray)
        system.seed_task(Task(func="spray", ts=0,
                              data_addr=bank_addr(system, 0)))
        system.run()
        return system.makespan

    assert run(40) > run(2)


def test_separate_chips_copy_in_parallel():
    system = make_system()
    # Two independent intra-chip sprays on different chips.
    def spawn_chip0(ctx, task):
        for i in range(10):
            ctx.enqueue_task("noop", task.ts, bank_addr(system, 1, i * 256),
                             workload=1)

    def spawn_chip1(ctx, task):
        for i in range(10):
            ctx.enqueue_task("noop", task.ts, bank_addr(system, 5, i * 256),
                             workload=1)

    system.registry.register("s0", spawn_chip0)
    system.registry.register("s1", spawn_chip1)
    system.seed_task(Task(func="s0", ts=0, data_addr=bank_addr(system, 0)))
    system.seed_task(Task(func="s1", ts=0, data_addr=bank_addr(system, 4)))
    system.run()
    buses = system.fabric.chip_buses
    used = [b for b in buses.values() if b.total_bytes > 0]
    assert len(used) == 2
