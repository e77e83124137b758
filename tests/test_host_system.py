"""Tests for the design-H host multicore model."""

import pytest

from repro.apps import make_app
from repro.baselines.host_system import HostSystem
from repro.config import Design, tiny_config
from repro.runtime.runner import build_system, run_app
from repro.runtime.task import Task


def make_host():
    return HostSystem(tiny_config(Design.H))


def test_runs_simple_task():
    host = make_host()
    done = []
    host.registry.register("t", lambda ctx, task: done.append(ctx.unit_id))
    host.seed_task(Task(func="t", ts=0, data_addr=0, workload=100))
    host.run()
    assert len(done) == 1
    assert host.makespan > 0


def test_host_core_is_faster_than_ndp_core():
    host = make_host()
    host.registry.register("t", lambda ctx, task: None)
    host.seed_task(Task(func="t", ts=0, data_addr=0,
                        workload=1300, actual_cycles=1300))
    host.run()
    # 1300 NDP cycles / 6.5x speedup = ~200 host-side cycles of compute.
    assert host.makespan <= 220


def test_all_cores_used_in_parallel():
    host = make_host()
    host.registry.register("t", lambda ctx, task: None)
    for i in range(16):
        host.seed_task(Task(func="t", ts=0, data_addr=i * 4096,
                            workload=1300, actual_cycles=1300,
                            read_only=True))
    host.run()
    # 16 tasks on 16 cores take barely longer than 1 task.
    assert host.makespan <= 2 * 220


def test_work_exceeding_cores_serializes():
    def run(n):
        host = make_host()
        host.registry.register("t", lambda ctx, task: None)
        for i in range(n):
            host.seed_task(Task(func="t", ts=0, data_addr=i * 4096,
                                workload=1300, actual_cycles=1300,
                                read_only=True))
        host.run()
        return host.makespan

    assert run(32) > 1.5 * run(16)


def test_writers_to_same_element_serialize():
    def run(read_only):
        host = make_host()
        host.registry.register("t", lambda ctx, task: None)
        for _ in range(32):
            host.seed_task(Task(func="t", ts=0, data_addr=128,
                                workload=13, actual_cycles=13,
                                read_only=read_only))
        host.run()
        return host.makespan

    assert run(read_only=False) > 2 * run(read_only=True)


def test_memory_bandwidth_bounds_short_tasks():
    host = make_host()
    host.registry.register("t", lambda ctx, task: None)
    for i in range(1000):
        host.seed_task(Task(func="t", ts=0, data_addr=i * 64,
                            workload=1, actual_cycles=1))
    host.run()
    # 1000 x 64 B over ~96 B/cycle of shared bandwidth is > 600 cycles.
    assert host.makespan >= 600


def test_epochs_respected():
    host = make_host()
    order = []
    host.registry.register("t", lambda ctx, task: order.append(task.args[0]))
    host.seed_task(Task(func="t", ts=1, data_addr=0, args=("late",),
                        workload=1))
    host.seed_task(Task(func="t", ts=0, data_addr=64, args=("early",),
                        workload=500, actual_cycles=500))
    host.run()
    assert order == ["early", "late"]


def test_build_system_dispatches_on_design():
    assert isinstance(build_system(tiny_config(Design.H)), HostSystem)


def test_apps_run_unmodified_on_host():
    app = make_app("wcc", scale=0.03, seed=2)
    result = run_app(app, tiny_config(Design.H))
    assert app.verify()
    assert result.metrics.design == "H"


def test_cannot_run_twice():
    host = make_host()
    host.registry.register("t", lambda ctx, task: None)
    host.seed_task(Task(func="t", ts=0, data_addr=0))
    host.run()
    with pytest.raises(RuntimeError):
        host.run()
