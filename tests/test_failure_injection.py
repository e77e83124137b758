"""Failure-injection tests: the harness must *detect* protocol faults.

A simulator that silently absorbs lost messages or corrupted metadata
produces plausible wrong numbers.  These tests inject faults and assert
the detection machinery (tracker accounting, run-stall detection, audit)
catches each one loudly.
"""

import pytest

from repro.apps import make_app
from repro.config import Design, tiny_config
from repro.messages import Mailbox, TaskMessage
from repro.runtime.requests import run_openloop
from repro.runtime.runner import build_system
from repro.runtime.system import STALL_WINDOW_CYCLES, NDPSystem
from repro.runtime.task import Task
from repro.sim import SimulationError
from repro.workloads.openloop import OpenLoopSpec, TenantSpec, \
    generate_requests


def test_dropped_message_stalls_run_detectably():
    """If a fabric drops a message, the run must end in SimulationError,
    not silently complete with missing work."""
    system = NDPSystem(tiny_config(Design.B))
    system.registry.register("noop", lambda ctx, task: None)
    bank = system.addr_map.bank_bytes

    bridge = system.fabric.rank_bridges[0]
    original = bridge._route_messages
    dropped = []

    def lossy(msgs):
        if not dropped and msgs:
            dropped.append(msgs[0])   # swallow exactly one message
            msgs = msgs[1:]
        original(msgs)

    bridge._route_messages = lossy

    def spawn(ctx, task):
        for u in range(1, 6):
            ctx.enqueue_task("noop", task.ts, u * bank, workload=5)

    system.registry.register("spawn", spawn)
    system.seed_task(Task(func="spawn", ts=0, data_addr=0))
    with pytest.raises(SimulationError):
        system.run()
    assert dropped, "the fault was never injected"


def test_lost_data_messages_stall_run_promptly():
    """A design-O run that loses every lend stops within the watchdog's
    window, far below max_cycles, and says where its messages are."""
    app = make_app("ht", scale=0.1, seed=7)
    system = build_system(tiny_config(Design.O))
    app.attach(system)
    app.seed_tasks(system)
    lost = []
    for unit in system.units:
        unit.deliver_data_message = lost.append
    with pytest.raises(SimulationError, match="run stalled") as err:
        system.run()
    assert lost, "the fault was never injected"
    assert system.sim.now < 2 * STALL_WINDOW_CYCLES
    report = str(err.value)
    assert f"data_msgs={len(lost)}" in report
    assert "outstanding tasks by epoch {0: " in report
    assert "bridge0.backup=" in report


@pytest.mark.parametrize(
    "design,makespan,mean,worst",
    [
        (Design.O, 15_960_834, 7042.75, 7470.0),
        (Design.C, 15_960_428, 6636.75, 7064.0),
    ],
    ids=["O", "C"],
)
def test_sparse_open_loop_stream_is_not_a_stall(design, makespan, mean, worst):
    """Idle gaps longer than the window, between requests that send
    messages, are not a stall: the run completes with its usual numbers."""
    spec = OpenLoopSpec(tenants=(
        TenantSpec(name="sparse", n_requests=4, mean_gap=4_000_000.0),
    ))
    arrivals = [r.arrival for r in generate_requests(spec.tenants, 16, 1)]
    gaps = [b - a for a, b in zip([0] + arrivals, arrivals)]
    assert min(gaps) > STALL_WINDOW_CYCLES
    metrics = run_openloop("tree", tiny_config(design), spec,
                           scale=0.05, seed=1).metrics
    assert metrics.task_messages > 0
    assert metrics.makespan == makespan
    assert metrics.extra["lat/sparse/mean"] == mean
    assert metrics.extra["lat/sparse/max"] == worst


@pytest.mark.parametrize(
    "design,makespan",
    [(Design.B, 2_501_269), (Design.C, 2_502_740)],
    ids=["B", "C"],
)
def test_task_longer_than_the_stall_window_completes(design, makespan):
    system = NDPSystem(tiny_config(design))
    system.registry.register("noop", lambda ctx, task: None)
    bank = system.addr_map.bank_bytes

    def spawn(ctx, task):
        for u in range(1, 6):
            ctx.enqueue_task("noop", task.ts, u * bank, workload=5)

    system.registry.register("spawn", spawn)
    cycles = 2 * STALL_WINDOW_CYCLES + 500_000
    system.seed_task(Task(func="spawn", ts=0, data_addr=0,
                          workload=cycles, actual_cycles=cycles))
    system.run()
    assert system.total_tasks_executed == 6
    assert system.makespan == makespan


def test_double_completion_detected():
    from repro.runtime.tracker import RunTracker

    tracker = RunTracker()
    tracker.task_created(0)
    tracker.task_completed(0)
    with pytest.raises(RuntimeError):
        tracker.task_completed(0)


def test_phantom_delivery_detected():
    from repro.runtime.tracker import RunTracker

    tracker = RunTracker()
    msg = TaskMessage(src_unit=0, dst_unit=1,
                      task=Task(func="f", ts=0, data_addr=0))
    with pytest.raises(RuntimeError, match="underflow"):
        tracker.message_delivered(msg)


def test_mailbox_overfill_rejected_on_strict_path():
    mb = Mailbox(64)
    first, overflow = (
        TaskMessage(src_unit=0, dst_unit=1,
                    task=Task(func="f", ts=0, data_addr=addr))
        for addr in (0, 64)
    )
    assert mb.enqueue(first)
    # A full mailbox hands the message back and counts the rejection.
    assert not mb.enqueue(overflow)
    assert mb.dropped_messages == 1
    assert mb.dropped_bytes == overflow.wire_bytes
    assert mb.pending_messages() == (first,)


def test_audit_catches_injected_orphan_borrow():
    from repro.apps import make_app
    from repro.runtime.runner import run_app

    result = run_app(make_app("ll", scale=0.05, seed=2),
                     tiny_config(Design.O))
    system = result.system
    # Orphan: a unit claims to hold a block nobody lent.  finish() on a
    # finished run makes the end-of-run checks again.
    system.units[6].borrowed.insert(12345, 0, 1)
    with pytest.raises(SimulationError,
                       match="I2: block 12345 is held by unit6"):
        system.finish()


def test_task_function_exception_propagates():
    """Application bugs must surface, not vanish into the event loop."""
    system = NDPSystem(tiny_config(Design.B))

    def broken(ctx, task):
        raise ZeroDivisionError("application bug")

    system.registry.register("broken", broken)
    system.seed_task(Task(func="broken", ts=0, data_addr=0))
    with pytest.raises(ZeroDivisionError):
        system.run()
