"""Tests for epoch tracking and termination detection."""

import pytest

from repro.messages import DataMessage, TaskMessage
from repro.runtime.task import Task
from repro.runtime.tracker import RunTracker


def task_msg():
    return TaskMessage(src_unit=0, dst_unit=1,
                       task=Task(func="f", ts=0, data_addr=0))


def data_msg():
    return DataMessage(src_unit=0, dst_unit=1, block_id=0, home_unit=0)


def test_simple_lifecycle():
    tr = RunTracker()
    tr.task_created(0)
    assert not tr.finished
    tr.task_completed(0)
    assert tr.finished


def test_epoch_advances_through_future_work():
    tr = RunTracker()
    epochs = []
    tr.on_epoch_advance(epochs.append)
    tr.task_created(0)
    tr.task_created(1)
    tr.task_created(1)
    tr.task_completed(0)
    assert tr.epoch == 1
    assert epochs == [1]
    assert not tr.finished
    tr.task_completed(1)
    tr.task_completed(1)
    assert tr.finished


def test_in_flight_messages_hold_epoch():
    tr = RunTracker()
    tr.task_created(0)
    msg = task_msg()
    tr.message_departed(msg)
    tr.task_completed(0)
    assert not tr.finished       # a task message is still flying
    tr.message_delivered(msg)
    assert tr.finished


def test_data_messages_do_not_hold_epoch():
    tr = RunTracker()
    tr.task_created(0)
    msg = data_msg()
    tr.message_departed(msg)
    assert msg.in_flight
    tr.task_completed(0)
    assert tr.finished           # data-only transfers don't block
    assert tr.data_messages_in_flight == 1


def test_sparse_epochs_skip_forward():
    tr = RunTracker()
    tr.task_created(0)
    tr.task_created(5)
    tr.task_completed(0)
    # Epochs advance one at a time but drain instantly when empty.
    assert tr.epoch == 5
    tr.task_completed(5)
    assert tr.finished


def test_listener_creating_work_keeps_run_alive():
    tr = RunTracker()

    def seeder(epoch):
        if epoch == 1:
            tr.task_created(1)

    tr.on_epoch_advance(seeder)
    tr.task_created(0)
    tr.task_created(1)
    tr.task_completed(0)
    assert tr.epoch == 1
    tr.task_completed(1)
    tr.task_completed(1)
    assert tr.finished


def test_finish_listener_runs_once():
    tr = RunTracker()
    fired = []
    tr.on_finish(lambda: fired.append(1))
    tr.task_created(0)
    tr.task_completed(0)
    tr.check_progress()
    assert fired == [1]


def test_invalid_transitions_raise():
    tr = RunTracker()
    tr.task_created(0)
    tr.task_completed(0)
    with pytest.raises(RuntimeError):
        tr.task_completed(0)
    with pytest.raises(RuntimeError, match="task message in-flight"):
        tr.message_delivered(task_msg())


def test_creating_for_past_epoch_raises():
    tr = RunTracker()
    tr.task_created(0)
    tr.task_created(2)
    tr.task_completed(0)
    assert tr.epoch == 2
    with pytest.raises(ValueError):
        tr.task_created(1)


def test_outstanding_counts():
    tr = RunTracker()
    tr.task_created(0)
    tr.task_created(0)
    tr.task_completed(0)
    assert tr.outstanding(0) == 1
    assert tr.total_created == 2
    assert tr.total_completed == 1
