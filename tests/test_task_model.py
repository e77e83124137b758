"""Tests for the Task abstraction and TaskContext API (Section IV)."""

import pytest

from repro.runtime.program import TaskContext, TaskRegistry
from repro.runtime.task import Task


class TestTask:
    def test_workload_estimate_default(self):
        t = Task(func="f", ts=0, data_addr=0)
        assert t.workload_estimate == Task.DEFAULT_WORKLOAD
        assert t.execution_cycles == Task.DEFAULT_WORKLOAD

    def test_inaccurate_estimate_allowed(self):
        t = Task(func="f", ts=0, data_addr=0, workload=10, actual_cycles=99)
        assert t.workload_estimate == 10
        assert t.execution_cycles == 99

    def test_minimums_clamped(self):
        t = Task(func="f", ts=0, data_addr=0, workload=0, actual_cycles=0)
        assert t.workload_estimate == 1
        assert t.execution_cycles == 1

    def test_size_grows_with_args(self):
        small = Task(func="f", ts=0, data_addr=0)
        big = Task(func="f", ts=0, data_addr=0, args=(1, 2, 3))
        assert big.size_bytes == small.size_bytes + 3 * 8

    def test_ids_unique(self):
        a = Task(func="f", ts=0, data_addr=0)
        b = Task(func="f", ts=0, data_addr=0)
        assert a.task_id != b.task_id
        assert b.task_id == a.task_id + 1  # drawn in creation order


#: (value passed, the whole cycles it becomes): None takes the default,
#: and any other value is cut to an int of at least one.
COSTS = [(None, None), (0, 1), (-3, 1), (2.7, 2), (16, 16)]


class TestTaskConstructor:
    @pytest.mark.parametrize("workload, estimate", COSTS)
    @pytest.mark.parametrize("actual, cycles", COSTS)
    def test_costs_fixed_at_construction(
        self, workload, estimate, actual, cycles
    ):
        t = Task(func="f", ts=0, data_addr=0, workload=workload,
                 actual_cycles=actual)
        if estimate is None:
            estimate = Task.DEFAULT_WORKLOAD
        if cycles is None:  # the true cost defaults to the estimate
            cycles = estimate
        assert t.workload == workload and t.actual_cycles == actual
        assert t.workload_estimate == estimate
        assert t.execution_cycles == cycles
        assert type(t.workload_estimate) is int
        assert type(t.execution_cycles) is int

    def test_numpy_costs_become_ints(self):
        np = pytest.importorskip("numpy")
        t = Task(func="f", ts=0, data_addr=0, workload=np.int64(5))
        assert t.workload_estimate == t.execution_cycles == 5
        assert type(t.workload_estimate) is int
        assert type(t.execution_cycles) is int
        t = Task(func="f", ts=0, data_addr=0, workload=16,
                 actual_cycles=np.int64(5))
        assert t.workload_estimate == 16
        assert t.execution_cycles == 5
        assert type(t.execution_cycles) is int

    def test_explicit_id_kept_and_not_drawn(self):
        a = Task(func="f", ts=0, data_addr=0)
        explicit = Task(func="f", ts=0, data_addr=0, task_id=a.task_id + 100)
        b = Task(func="f", ts=0, data_addr=0)
        assert explicit.task_id == a.task_id + 100
        assert b.task_id == a.task_id + 1

    def test_positional_order_is_enqueue_tasks(self):
        ctx = TaskContext(unit_id=0, now=0, epoch=0)
        spawned = ctx.enqueue_task("f", 1, 0x40, 5, (7, 8), 9, True)
        direct = Task("f", 1, 0x40, 5, (7, 8), 9, True)
        for t in (spawned, direct):
            assert (t.func, t.ts, t.data_addr, t.workload, t.args,
                    t.actual_cycles, t.read_only, t.data_bytes) == (
                "f", 1, 0x40, 5, (7, 8), 9, True, 64)
            assert (t.workload_estimate, t.execution_cycles) == (5, 9)
        assert spawned.task_id + 1 == direct.task_id

    def test_no_instance_dict(self):
        t = Task(func="f", ts=0, data_addr=0)
        assert not hasattr(t, "__dict__")
        with pytest.raises(AttributeError):
            t.home = 3


class TestTaskRegistry:
    def test_register_and_lookup(self):
        reg = TaskRegistry()
        fn = lambda ctx, task: None  # noqa: E731
        reg.register("visit", fn)
        assert reg.lookup("visit") is fn
        assert "visit" in reg
        assert reg.names() == ["visit"]

    def test_duplicate_rejected(self):
        reg = TaskRegistry()
        reg.register("visit", lambda c, t: None)
        with pytest.raises(ValueError):
            reg.register("visit", lambda c, t: None)

    def test_unknown_lookup_raises(self):
        reg = TaskRegistry()
        with pytest.raises(KeyError):
            reg.lookup("nope")


class TestTaskContext:
    def test_enqueue_collects_children(self):
        ctx = TaskContext(unit_id=3, now=100, epoch=2)
        child = ctx.enqueue_task("f", 2, data_addr=64, workload=5, args=(1,))
        assert ctx.spawned() == [child]
        assert child.ts == 2
        assert child.args == (1,)

    def test_future_timestamps_allowed(self):
        ctx = TaskContext(unit_id=0, now=0, epoch=2)
        child = ctx.enqueue_task("f", 5, data_addr=0)
        assert child.ts == 5

    def test_past_timestamp_rejected(self):
        ctx = TaskContext(unit_id=0, now=0, epoch=2)
        with pytest.raises(ValueError):
            ctx.enqueue_task("f", 1, data_addr=0)

    def test_context_exposes_unit_and_time(self):
        ctx = TaskContext(unit_id=7, now=42, epoch=0)
        assert ctx.unit_id == 7
        assert ctx.now == 42


class TestDispatchCost:
    def test_default_cost_is_execution_cycles(self):
        reg = TaskRegistry()
        reg.register("f", lambda c, t: None)
        t = Task(func="f", ts=0, data_addr=0, workload=5, actual_cycles=30)
        assert reg.dispatch_cost(t) == 30

    def test_cost_hook_overrides(self):
        reg = TaskRegistry()
        reg.register("f", lambda c, t: None, cost=lambda t: 3)
        t = Task(func="f", ts=0, data_addr=0, workload=500)
        assert reg.dispatch_cost(t) == 3

    def test_cost_hook_clamped_to_one(self):
        reg = TaskRegistry()
        reg.register("f", lambda c, t: None, cost=lambda t: 0)
        t = Task(func="f", ts=0, data_addr=0)
        assert reg.dispatch_cost(t) == 1

    def test_cost_hook_sees_task(self):
        reg = TaskRegistry()
        reg.register("f", lambda c, t: None,
                     cost=lambda t: 10 if t.args and t.args[0] else 99)
        hot = Task(func="f", ts=0, data_addr=0, args=(True,))
        cold = Task(func="f", ts=0, data_addr=0, args=(False,))
        assert reg.dispatch_cost(hot) == 10
        assert reg.dispatch_cost(cold) == 99


class TestReadOnlyFlag:
    def test_default_is_writer(self):
        assert not Task(func="f", ts=0, data_addr=0).read_only

    def test_context_passes_flag(self):
        ctx = TaskContext(unit_id=0, now=0, epoch=0)
        child = ctx.enqueue_task("f", 0, 0, read_only=True)
        assert child.read_only
