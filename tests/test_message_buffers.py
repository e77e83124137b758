"""Tests for the bridge SRAM message buffers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.messages import DataMessage, MessageBuffer, TaskMessage
from repro.runtime.task import Task


def task_msg(i=0):
    return TaskMessage(
        src_unit=0, dst_unit=1,
        task=Task(func="f", ts=0, data_addr=i * 64),
    )


def test_push_pop_fifo():
    buf = MessageBuffer("b", 1024)
    msgs = [task_msg(i) for i in range(4)]
    for m in msgs:
        assert buf.push(m)
    assert [buf.pop() for _ in range(4)] == msgs
    assert buf.pop() is None


def test_capacity_enforced():
    buf = MessageBuffer("b", 128)
    assert buf.push(task_msg(0))
    assert buf.push(task_msg(1))
    assert not buf.push(task_msg(2))
    assert buf.used_bytes == 128
    assert buf.free_bytes == 0


def test_pop_up_to_respects_budget():
    buf = MessageBuffer("b", 4096)
    for i in range(10):
        buf.push(task_msg(i))
    got, nbytes = buf.pop_up_to(256)
    assert len(got) == 4
    assert nbytes == sum(m.wire_bytes for m in got) == 256
    assert buf.used_bytes == 6 * 64


def test_pop_up_to_moves_oversized_head_alone():
    buf = MessageBuffer("b", 4096)
    big = DataMessage(src_unit=0, dst_unit=1, block_id=0, block_bytes=1024)
    buf.push(big)
    buf.push(task_msg(1))
    got, nbytes = buf.pop_up_to(256)
    assert got == [big]
    assert nbytes == big.wire_bytes


def test_invalid_capacity():
    with pytest.raises(ValueError):
        MessageBuffer("b", 0)


def _oversize_msg(block_bytes=2048):
    return DataMessage(
        src_unit=0, dst_unit=1, block_id=0, block_bytes=block_bytes
    )


def test_oversize_message_admitted_into_empty_buffer():
    """A message larger than the whole buffer is a 64 B sub-message
    train; it must be able to traverse the hop alone (buffers.py
    store-and-forward minimum)."""
    buf = MessageBuffer("b", 128)
    big = _oversize_msg()  # 2112 wire bytes >> 128
    assert big.wire_bytes > buf.capacity_bytes
    assert buf.push(big)
    assert buf.used_bytes == big.wire_bytes  # accounting stays truthful
    assert buf.pop() is big
    assert buf.used_bytes == 0


def test_oversize_message_rejected_when_buffer_occupied():
    buf = MessageBuffer("b", 128)
    assert buf.push(task_msg(0))
    big = _oversize_msg()
    assert not buf.push(big)
    assert buf.dropped_messages == 1
    assert buf.dropped_bytes == big.wire_bytes


def test_rejection_counters():
    buf = MessageBuffer("b", 128)
    assert buf.push(task_msg(0))
    assert buf.push(task_msg(1))
    assert buf.dropped_messages == 0 and buf.dropped_bytes == 0
    rejected = task_msg(2)
    assert not buf.push(rejected)
    assert not buf.push(rejected)
    assert buf.dropped_messages == 2
    assert buf.dropped_bytes == 2 * rejected.wire_bytes


def test_force_push_ignores_capacity_but_keeps_accounting():
    buf = MessageBuffer("b", 128)
    msgs = [task_msg(i) for i in range(3)]
    assert buf.push(msgs[0])
    assert buf.push(msgs[1])
    assert not buf.push(msgs[2])
    buf.force_push(msgs[2])  # soft overflow: admitted anyway
    assert buf.used_bytes == 192 > buf.capacity_bytes
    assert [buf.pop() for _ in range(3)] == msgs
    assert buf.used_bytes == 0


def test_pending_messages_snapshot():
    buf = MessageBuffer("b", 1024)
    msgs = [task_msg(i) for i in range(3)]
    for m in msgs:
        buf.push(m)
    snap = buf.pending_messages()
    assert snap == tuple(msgs)
    buf.pop()
    assert snap == tuple(msgs)  # a copy, not a live view
    assert buf.pending_messages() == tuple(msgs[1:])


#: One buffer operation: its name (pushes weighted so the buffer fills),
#: the message a push or force_push offers -- a task message with 0-20
#: arguments (64, 128 or 192 wire bytes) or a data message (128, 320 or
#: 576 wire bytes, the last two larger than the buffer) -- and the byte
#: budget of a pop_up_to, often a whole number of frames so that a
#: message can fill it exactly.
_operation = st.tuples(
    st.sampled_from((
        "push", "push", "push", "force_push", "pop", "pop_up_to", "pop_up_to",
    )),
    st.one_of(
        st.tuples(st.just("task"), st.integers(min_value=0, max_value=20)),
        st.tuples(st.just("data"), st.sampled_from((64, 304, 560))),
    ),
    st.one_of(
        st.integers(min_value=1, max_value=640),
        st.integers(min_value=1, max_value=10).map(lambda k: 64 * k),
    ),
)


def _make(i, kind, size):
    if kind == "task":
        return TaskMessage(src_unit=0, dst_unit=1, task=Task(
            func="f", ts=0, data_addr=i * 64, args=tuple(range(size)),
        ))
    return DataMessage(src_unit=0, dst_unit=1, block_id=i, block_bytes=size)


@settings(max_examples=200, deadline=None)
@given(st.lists(_operation, max_size=60))
def test_byte_accounting_property(ops):
    """Random traffic on a small buffer matches a plain reference FIFO:
    bytes, order, pop_up_to's budget rule and byte count, and the drop
    counters.  ``used_bytes`` is 0 exactly when the buffer is empty."""
    buf = MessageBuffer("b", 256)
    ref = []       # the messages the buffer should hold, oldest first
    dropped = []   # every message a push rejected
    for i, (op, offered, budget) in enumerate(ops):
        if op == "force_push":
            msg = _make(i, *offered)
            buf.force_push(msg)
            ref.append(msg)
        elif op == "push":
            msg = _make(i, *offered)
            size = msg.wire_bytes
            free = buf.capacity_bytes - sum(m.wire_bytes for m in ref)
            admit = size <= free or (size > buf.capacity_bytes and not ref)
            assert buf.push(msg) is admit
            (ref if admit else dropped).append(msg)
        elif op == "pop":
            assert buf.pop() is (ref.pop(0) if ref else None)
        else:
            got, nbytes = buf.pop_up_to(budget)
            assert got == ref[:len(got)]
            assert bool(got) == bool(ref)
            taken = sum(m.wire_bytes for m in ref[:len(got)])
            assert nbytes == taken
            rest = ref[len(got):]
            if taken > budget:
                assert len(got) == 1  # an over-budget head moves alone
            elif rest:
                assert taken + rest[0].wire_bytes > budget  # nothing fits
            del ref[:len(got)]
        assert list(buf.pending_messages()) == ref
        assert buf.used_bytes == sum(m.wire_bytes for m in ref)
        assert (buf.used_bytes == 0) is (not ref) is buf.is_empty()
        assert buf.dropped_messages == len(dropped)
        assert buf.dropped_bytes == sum(m.wire_bytes for m in dropped)
