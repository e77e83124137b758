"""The message-flow checks that every run makes.

``RunTracker.message_departed`` and ``message_delivered`` see every send
and delivery.  A data message carries an ``in_flight`` flag: a second
departure, a double delivery and a phantom delivery each raise.  A task
message carries none; sending one twice fails the run through
``RunTracker.task_completed``, or at ``NDPSystem.finish()``, where every
unit must be idle.  At ``finish()`` no task message may sit in any
container either, and a data message only while it is in flight.  None
of this overrides a method on a live object.
"""

from dataclasses import replace

import pytest

from repro.apps import make_app
from repro.config import (
    Design,
    default_config,
    scaled_config,
    small_config,
    tiny_config,
)
from repro.messages import DataMessage, Mailbox, Message, TaskMessage
from repro.ndp.unit import NDPUnit
from repro.runtime.runner import run_app
from repro.runtime.system import STALL_WINDOW_CYCLES, NDPSystem
from repro.runtime.task import Task
from repro.runtime.tracker import RunTracker
from repro.sim import SimulationError


def _task_msg():
    task = Task(func="fixture", ts=0, data_addr=0, workload=4)
    return TaskMessage(src_unit=0, dst_unit=1, task=task)


def _data_msg():
    return DataMessage(src_unit=0, dst_unit=1, block_id=3, home_unit=0)


def _finished_system():
    """A system whose empty run has finished, so ``finish()`` only runs
    its end-of-run checks."""
    return NDPSystem(tiny_config(Design.O)).start()


# ----------------------------------------------------------------------
# send and delivery
# ----------------------------------------------------------------------
def test_duplicate_send_detected():
    tracker = RunTracker()
    msg = _data_msg()
    tracker.message_departed(msg)
    with pytest.raises(RuntimeError, match="departed twice"):
        tracker.message_departed(msg)


def test_double_delivery_detected():
    tracker = RunTracker()
    msg = _data_msg()
    tracker.message_departed(msg)
    tracker.message_delivered(msg)
    assert tracker.data_messages_in_flight == 0
    with pytest.raises(RuntimeError, match="phantom or a double delivery"):
        tracker.message_delivered(msg)


def test_phantom_delivery_detected():
    tracker = RunTracker()
    with pytest.raises(RuntimeError, match="phantom or a double delivery"):
        tracker.message_delivered(_data_msg())


def test_copy_of_an_in_flight_message_is_not_in_flight():
    tracker = RunTracker()
    msg = _data_msg()
    tracker.message_departed(msg)
    copy = replace(msg)
    assert msg.in_flight and not copy.in_flight
    with pytest.raises(RuntimeError, match="phantom or a double delivery"):
        tracker.message_delivered(copy)


@pytest.mark.parametrize("app, config, error, match", [
    pytest.param("bfs", small_config(design), RuntimeError,
                 "more completions than creations", id=str(design))
    for design in (Design.B, Design.O, Design.C)
] + [
    # The surplus completion lets the tracker finish the run while unit 3
    # still holds the task: the run-end idle check names the unit.
    pytest.param("ll", tiny_config(Design.W), SimulationError,
                 "unit3 is not idle.*queue=1", id="ll-Design.W"),
])
def test_task_message_sent_twice_fails_the_run(
    app, config, error, match, monkeypatch
):
    send = NDPUnit._send
    doubled = []

    def send_first_task_twice(self, msg):
        send(self, msg)
        if isinstance(msg, TaskMessage) and not doubled:
            doubled.append(msg)
            send(self, msg)

    monkeypatch.setattr(NDPUnit, "_send", send_first_task_twice)
    with pytest.raises(error, match=match):
        run_app(make_app(app, scale=0.05, seed=7), config)
    assert doubled


def test_intentional_leak_caught_through_real_containers(monkeypatch):
    """A mailbox that admits a task message and then loses it leaves
    the message counted in flight forever: the run stalls and fails."""
    enqueue = Mailbox.enqueue
    lost = []

    def lose_first_task(self, msg):
        if isinstance(msg, TaskMessage) and not lost:
            lost.append(msg)
            return True
        return enqueue(self, msg)

    monkeypatch.setattr(Mailbox, "enqueue", lose_first_task)
    with pytest.raises(SimulationError, match="run stalled.*task_msgs=1"):
        run_app(make_app("bfs", scale=0.05, seed=7), tiny_config(Design.B))
    assert lost


# ----------------------------------------------------------------------
# a message of neither class
# ----------------------------------------------------------------------
class StrayMessage(Message):
    """Neither a task nor a data message, with a one-frame payload."""

    payload_bytes = 40


NEITHER = "StrayMessage message, which is neither a TaskMessage nor a"


@pytest.mark.parametrize("design, where", [
    (Design.B, "bridge0"),   # the level-1 router
    (Design.C, "host"),      # the host's delivery
])
def test_message_of_neither_class_fails_where_it_is_routed(design, where):
    """The tracker counts the stray message in flight, so dropping it
    would only show as the stall report, 10^6 cycles later."""
    system = NDPSystem(tiny_config(design))
    system.units[0]._send(StrayMessage(src_unit=0, dst_unit=5))
    system.start()  # the message in flight keeps the run open
    with pytest.raises(SimulationError, match=f"^{where} got a {NEITHER}"):
        system.finish()
    assert system.sim.now < STALL_WINDOW_CYCLES // 10


def test_message_of_neither_class_fails_on_every_bridge_path():
    system = NDPSystem(scaled_config(128, Design.B))
    bridge = system.fabric.rank_bridges[1]
    stray = StrayMessage(src_unit=0, dst_unit=70)
    with pytest.raises(SimulationError, match=f"^bridge1 got a {NEITHER}"):
        bridge._deliver(system.units[70], [stray])
    with pytest.raises(SimulationError, match=f"^bridge1 got a {NEITHER}"):
        bridge.receive_from_l2(stray)
    with pytest.raises(SimulationError, match=f"^level2 got a {NEITHER}"):
        system.fabric.level2._route_one(stray)


# ----------------------------------------------------------------------
# resident messages at finish()
# ----------------------------------------------------------------------
def test_resident_message_is_not_a_leak():
    system = _finished_system()
    msg = _data_msg()
    system.tracker.message_departed(msg)
    assert system.units[0].mailbox.enqueue(msg)
    system.finish()  # a data message may still be on its way


def test_resident_but_never_sent_detected():
    system = _finished_system()
    assert system.units[0].mailbox.enqueue(_data_msg())
    with pytest.raises(SimulationError, match="unit0.mailbox holds data"):
        system.finish()


def test_resident_task_message_detected():
    system = _finished_system()
    system.units[2]._backlog.append(_task_msg())
    with pytest.raises(SimulationError, match="unit2.backlog holds task"):
        system.finish()


def test_resident_after_delivery_detected():
    system = _finished_system()
    msg = _data_msg()
    system.tracker.message_departed(msg)
    system.tracker.message_delivered(msg)
    bridge = system.fabric.rank_bridges[0]
    assert bridge.scatter_buffers[1].push(msg)
    with pytest.raises(SimulationError, match="bridge0.scatter1 holds data"):
        system.finish()


# ----------------------------------------------------------------------
# real runs pass every check
# ----------------------------------------------------------------------
def _check_clean(system):
    stats = system.stats.as_dict()
    sent = sum(v for k, v in stats.items() if k.endswith(".tasks_forwarded"))
    assert sent > 0, "run sent no task message"
    assert system.tracker.task_messages_in_flight == 0
    for _, msgs in system._resident():
        assert all(isinstance(m, DataMessage) and m.in_flight for m in msgs)


@pytest.mark.parametrize(
    "design", [Design.O, Design.B, Design.C, Design.R]
)
def test_clean_report_after_real_run(design):
    _check_clean(run_app(make_app("bfs", scale=0.1, seed=7),
                         tiny_config(design)).system)


def test_clean_report_on_level2_hierarchy():
    cfg = default_config(Design.O)
    system = run_app(
        make_app("bfs", scale=0.05, seed=7),
        cfg.replace(comm=replace(cfg.comm, split_dimm=True)),
    ).system
    assert system.has_level2
    assert system.stats.as_dict()["bridge_l2.messages_routed"] > 0
    _check_clean(system)


def test_plain_run_has_no_hooks():
    """No object of a run has a method overridden on the instance.

    A slotted object has no ``__dict__`` to hold an override at all, so
    it is checked for that instead of through ``vars()``.
    """
    system = run_app(make_app("ht", scale=0.03, seed=7),
                     tiny_config(Design.O)).system
    objects = [system, system.sim, system.tracker, system.fabric]
    for unit in system.units:
        objects += [unit, unit.mailbox, unit.bank]
    for bridge in system.fabric.rank_bridges:
        objects += [bridge, bridge.up_mailbox]
        objects += list(bridge.scatter_buffers.values())
    for obj in objects:
        if "__slots__" in vars(type(obj)):
            assert not hasattr(obj, "__dict__"), type(obj).__name__
            continue
        shadowed = [
            name for name in vars(obj)
            if callable(getattr(type(obj), name, None))
        ]
        assert not shadowed, f"{type(obj).__name__} overrides {shadowed}"
