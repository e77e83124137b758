"""Tests for message formats and 64 B framing (paper Fig. 5)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.messages import (
    DataMessage,
    MESSAGE_BYTES,
    MessageType,
    TaskMessage,
    frame_bytes,
    sub_message_count,
)
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
