"""Edge-case tests for the assembled system."""

import pytest

from repro.apps import make_app
from repro.baselines.host_system import HostSystem
from repro.config import ConfigError, Design, tiny_config
from repro.runtime.runner import VerificationError, build_system, run_app
from repro.runtime.system import NDPSystem
from repro.runtime.task import Task
from repro.sim import SimulationError


def test_empty_workload_finishes_immediately():
    system = NDPSystem(tiny_config(Design.B))
    system.run()
    assert system.tracker.finished
    assert system.makespan == 0


def test_empty_workload_dispatches_no_events():
    system = NDPSystem(tiny_config(Design.O))
    system.start()
    queued = system.sim.pending_events  # the fabric's first rounds
    system.finish()
    assert system.sim.events_processed == 0
    assert system.sim.pending_events == queued


def test_empty_host_workload_dispatches_no_events():
    system = HostSystem(tiny_config(Design.H))
    system.sim.schedule(5, lambda: None)
    system.run()
    assert system.tracker.finished
    assert system.sim.events_processed == 0
    assert system.sim.pending_events == 1


def test_advance_into_the_past_is_rejected():
    cfg = tiny_config(Design.O)
    app = make_app("ll", scale=0.05, seed=1)
    system = build_system(cfg)
    app.attach(system)
    app.seed_tasks(system)
    system.start().advance(5000)
    assert system.sim.now == 5000
    with pytest.raises(
        ValueError, match="cannot run until t=100, current time is 5000"
    ):
        system.advance(100)
    assert system.sim.now == 5000
    system.finish()
    straight = run_app(make_app("ll", scale=0.05, seed=1), cfg).system
    assert system.makespan == straight.makespan
    assert system.sim.events_processed == straight.sim.events_processed


@pytest.mark.parametrize("design", [Design.B, Design.O])
@pytest.mark.parametrize("where", ["beyond", "negative"])
def test_child_task_outside_the_machine_raises(design, where):
    system = NDPSystem(tiny_config(design))
    addr = system.addr_map.total_bytes if where == "beyond" else -64

    def parent(ctx, task):
        ctx.enqueue_task("leaf", task.ts, addr)

    system.registry.register("parent", parent)
    system.registry.register("leaf", lambda ctx, task: None)
    system.seed_task(Task(func="parent", ts=0, data_addr=0))
    with pytest.raises(ValueError, match="out of range"):
        system.run()


def test_single_task_system():
    system = NDPSystem(tiny_config(Design.O))
    system.registry.register("t", lambda ctx, task: None)
    system.seed_task(Task(func="t", ts=0, data_addr=0, workload=7))
    system.run()
    assert system.total_tasks_executed == 1


def test_system_cannot_run_twice():
    system = NDPSystem(tiny_config(Design.B))
    system.run()
    with pytest.raises(RuntimeError):
        system.run()


def test_only_the_serial_engine_exists():
    cfg = tiny_config(Design.O)
    with pytest.raises(ConfigError, match="sharded engine was removed"):
        run_app(make_app("ll", scale=0.05, seed=1), cfg, shards=2)
    result = run_app(make_app("ll", scale=0.05, seed=1), cfg, shards=1)
    assert result.metrics.makespan > 0


def test_unknown_task_function_raises():
    system = NDPSystem(tiny_config(Design.B))
    system.seed_task(Task(func="missing", ts=0, data_addr=0))
    with pytest.raises(KeyError):
        system.run()


def test_max_cycles_guard_applies():
    cfg = tiny_config(Design.B).replace(max_cycles=100)
    system = NDPSystem(cfg)
    system.registry.register("t", lambda ctx, task: None)
    system.seed_task(Task(func="t", ts=0, data_addr=0,
                          workload=10_000, actual_cycles=10_000))
    with pytest.raises(SimulationError):
        system.run()


def test_verification_error_propagates():
    from repro.apps.linked_list import LinkedListApp

    class BrokenApp(LinkedListApp):
        def verify(self):
            return False

    app = BrokenApp(n_lists=16, n_queries=4, max_nodes=8, seed=1)
    with pytest.raises(VerificationError):
        run_app(app, tiny_config(Design.B))


def test_deep_task_chain_completes():
    """A long dependent chain exercises repeated local scheduling."""
    system = NDPSystem(tiny_config(Design.B))
    bank = system.addr_map.bank_bytes

    def chain(ctx, task):
        depth = task.args[0]
        if depth > 0:
            ctx.enqueue_task("chain", task.ts, task.data_addr,
                             workload=2, args=(depth - 1,))

    system.registry.register("chain", chain)
    system.seed_task(Task(func="chain", ts=0, data_addr=bank * 2,
                          workload=2, args=(500,)))
    system.run()
    assert system.total_tasks_executed == 501


def test_many_epochs_advance():
    system = NDPSystem(tiny_config(Design.B))

    def step(ctx, task):
        n = task.args[0]
        if n > 0:
            ctx.enqueue_task("step", task.ts + 1, task.data_addr,
                             workload=3, args=(n - 1,))

    system.registry.register("step", step)
    system.seed_task(Task(func="step", ts=0, data_addr=0, workload=3,
                          args=(40,)))
    system.run()
    assert system.tracker.epoch == 40


def test_wide_fanout_single_epoch():
    system = NDPSystem(tiny_config(Design.O))
    bank = system.addr_map.bank_bytes
    hits = []

    def fan(ctx, task):
        for u in range(16):
            ctx.enqueue_task("leaf", task.ts, u * bank + 128, workload=3)

    system.registry.register("fan", fan)
    system.registry.register("leaf", lambda ctx, t: hits.append(ctx.unit_id))
    system.seed_task(Task(func="fan", ts=0, data_addr=0))
    system.run()
    assert sorted(set(hits)) == list(range(16))
