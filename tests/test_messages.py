"""Tests for message formats and 64 B framing (paper Fig. 5)."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import Design, tiny_config
from repro.messages import (
    DataMessage,
    MESSAGE_BYTES,
    MessageType,
    TaskMessage,
    frame_bytes,
    sub_message_count,
)
from repro.runtime.system import NDPSystem
from repro.runtime.task import Task


def make_task(n_args=1):
    return Task(func="f", ts=0, data_addr=4096, workload=10,
                args=tuple(range(n_args)))


def test_task_message_fits_one_frame():
    msg = TaskMessage(src_unit=0, dst_unit=1, task=make_task(1))
    assert msg.mtype is MessageType.TASK
    assert msg.payload_bytes <= MESSAGE_BYTES
    assert msg.wire_bytes == MESSAGE_BYTES
    assert msg.sub_messages == 1


def test_large_task_spans_sub_messages():
    msg = TaskMessage(src_unit=0, dst_unit=1, task=make_task(12))
    assert msg.payload_bytes > MESSAGE_BYTES
    assert msg.sub_messages == 2
    assert msg.wire_bytes == 128


def test_data_message_block_framing():
    msg = DataMessage(src_unit=0, dst_unit=1, block_id=3, block_bytes=256)
    assert msg.mtype is MessageType.DATA
    # 16 B header + 256 B block -> 5 sub-messages.
    assert msg.sub_messages == 5
    assert msg.wire_bytes == 320


def test_frame_bytes_rejects_non_positive():
    with pytest.raises(ValueError):
        frame_bytes(0)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=4096))
def test_framing_invariants(n):
    framed = frame_bytes(n)
    assert framed >= n
    assert framed % MESSAGE_BYTES == 0
    assert framed - n < MESSAGE_BYTES
    assert sub_message_count(n) == framed // MESSAGE_BYTES


def test_message_ids_unique():
    a = TaskMessage(src_unit=0, dst_unit=1, task=make_task())
    b = TaskMessage(src_unit=0, dst_unit=1, task=make_task())
    assert a.msg_id != b.msg_id


# ----------------------------------------------------------------------
# the framed size, computed once at construction
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_args", range(17))
def test_task_message_size_is_its_framed_payload(n_args):
    msg = TaskMessage(src_unit=0, dst_unit=1, task=make_task(n_args))
    assert msg.size == msg.wire_bytes == frame_bytes(msg.payload_bytes)
    assert msg.size == frame_bytes(msg.task.size_bytes)


def test_task_message_is_slotted():
    msg = TaskMessage(src_unit=0, dst_unit=None, task=make_task(),
                      lb_assigned=True, bounces=1)
    assert not hasattr(msg, "__dict__")
    assert (msg.src_unit, msg.dst_unit, msg.lb_assigned, msg.bounces) == (
        0, None, True, 1)


def test_data_message_stays_a_dataclass():
    msg = DataMessage(src_unit=0, dst_unit=1, block_id=3, home_unit=0)
    copy = dataclasses.replace(msg, dst_unit=2)
    assert dataclasses.is_dataclass(copy)
    assert copy.msg_id == msg.msg_id
    assert (copy.src_unit, copy.dst_unit, copy.block_id) == (0, 2, 3)
    assert copy.size == msg.size == frame_bytes(16 + 256)


@pytest.mark.parametrize("block_bytes", (64, 256, 1024, 4096))
def test_data_message_size_is_its_framed_payload(block_bytes):
    msg = DataMessage(src_unit=0, dst_unit=1, block_id=3,
                      block_bytes=block_bytes)
    assert msg.size == msg.wire_bytes == frame_bytes(msg.payload_bytes)
    assert msg.size == frame_bytes(16 + block_bytes)


def test_bounced_task_keeps_its_wire_size():
    """A task forwarded toward its home, then bounced off it because the
    block is lent, travels in a new message of the same framed size."""
    system = NDPSystem(tiny_config(Design.O))
    system.tracker.task_created(0)  # keep the (unstarted) run open
    sender, home = system.units[0], system.units[3]
    task = Task(func="f", ts=0, data_addr=3 * system.addr_map.bank_bytes,
                workload=10, args=tuple(range(9)))
    sender.accept_task(task)
    (first,) = sender.mailbox.pending_messages()
    home.islent.set_lent(system.addr_map.block_of_addr(task.data_addr))
    home.deliver_task_message(first)
    (bounced,) = home.mailbox.pending_messages()
    assert bounced is not first and bounced.task is task
    assert (first.bounces, bounced.bounces) == (0, 1)
    assert first.size == bounced.size == frame_bytes(task.size_bytes) == 128
