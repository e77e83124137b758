"""Tests for the mailbox ring buffer (Section V-A)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.messages import DataMessage, Mailbox, TaskMessage
from repro.runtime.task import Task


def task_msg(i=0):
    return TaskMessage(
        src_unit=0, dst_unit=1,
        task=Task(func="f", ts=0, data_addr=i * 64, workload=1),
    )


def test_enqueue_accounts_wire_bytes():
    mb = Mailbox(1024)
    msg = task_msg()
    assert mb.enqueue(msg)
    assert mb.used_bytes == msg.wire_bytes
    assert mb.free_bytes == 1024 - msg.wire_bytes


def test_full_mailbox_rejects():
    mb = Mailbox(128)
    assert mb.enqueue(task_msg(0))
    assert mb.enqueue(task_msg(1))
    assert not mb.enqueue(task_msg(2))  # 192 > 128
    assert not mb.enqueue(task_msg(3))
    assert mb.used_bytes == 128
    assert mb.dropped_messages == 2


def test_fetch_fifo_order():
    mb = Mailbox(4096)
    msgs = [task_msg(i) for i in range(5)]
    for m in msgs:
        mb.enqueue(m)
    got, taken = mb.fetch(256)
    assert got == msgs[:4]
    assert taken == 256
    got2, _ = mb.fetch(256)
    assert got2 == msgs[4:]
    assert mb.is_empty()


def test_partial_fetch_of_large_message():
    mb = Mailbox(4096)
    big = DataMessage(src_unit=0, dst_unit=1, block_id=0, block_bytes=256)
    mb.enqueue(big)  # 320 wire bytes
    got, taken = mb.fetch(256)
    assert got == [] and taken == 256
    got, taken = mb.fetch(256)
    assert got == [big] and taken == 64
    assert mb.used_bytes == 0


def test_drain_all():
    mb = Mailbox(1024)
    msgs = [task_msg(i) for i in range(4)]
    for m in msgs:
        mb.enqueue(m)
    assert mb.drain_all() == msgs
    assert mb.is_empty()
    assert mb.used_bytes == 0


def test_invalid_construction_and_fetch():
    with pytest.raises(ValueError):
        Mailbox(0)
    mb = Mailbox(64)
    with pytest.raises(ValueError):
        mb.fetch(0)


def test_fetch_budget_smaller_than_head():
    """A budget below the head's wire size makes partial progress only."""
    mb = Mailbox(1024)
    msg = task_msg()  # 64 wire bytes
    mb.enqueue(msg)
    got, taken = mb.fetch(63)
    assert got == [] and taken == 63
    # The last byte completes the message.
    got, taken = mb.fetch(63)
    assert got == [msg] and taken == 1
    assert mb.is_empty() and mb.used_bytes == 0


def test_fetch_exact_fit_budget():
    mb = Mailbox(1024)
    msgs = [task_msg(i) for i in range(2)]
    for m in msgs:
        mb.enqueue(m)
    got, taken = mb.fetch(msgs[0].wire_bytes)
    assert got == [msgs[0]]
    assert taken == msgs[0].wire_bytes
    got, taken = mb.fetch(msgs[1].wire_bytes)
    assert got == [msgs[1]]
    assert mb.is_empty()


def test_fetch_budget_one_byte():
    """The minimum positive budget always makes forward progress."""
    mb = Mailbox(1024)
    msg = task_msg()
    mb.enqueue(msg)
    for _ in range(msg.wire_bytes - 1):
        got, taken = mb.fetch(1)
        assert got == [] and taken == 1
    got, taken = mb.fetch(1)
    assert got == [msg] and taken == 1


def test_rejection_counters():
    mb = Mailbox(128)
    assert mb.enqueue(task_msg(0))
    assert mb.enqueue(task_msg(1))
    assert mb.dropped_messages == 0 and mb.dropped_bytes == 0
    rejected = task_msg(2)
    assert not mb.enqueue(rejected)
    assert mb.dropped_messages == 1
    assert mb.dropped_bytes == rejected.wire_bytes
    # A retry after a drain is admitted; the first rejection stays counted.
    mb.fetch(64)
    assert mb.enqueue(rejected)
    assert mb.dropped_messages == 1


def test_pending_messages_snapshot():
    mb = Mailbox(1024)
    msgs = [task_msg(i) for i in range(3)]
    for m in msgs:
        mb.enqueue(m)
    snap = mb.pending_messages()
    assert snap == tuple(msgs)
    mb.fetch(64)
    # The snapshot is a copy, not a live view.
    assert snap == tuple(msgs)
    assert mb.pending_messages() == tuple(msgs[1:])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=20), max_size=30),
       st.integers(min_value=64, max_value=512))
def test_byte_conservation_property(arg_counts, budget):
    """Everything enqueued is eventually fetched, in order, exactly once."""
    mb = Mailbox(1 << 20)
    msgs = []
    for i, n in enumerate(arg_counts):
        m = TaskMessage(
            src_unit=0, dst_unit=1,
            task=Task(func="f", ts=0, data_addr=i, args=tuple(range(n))),
        )
        msgs.append(m)
        assert mb.enqueue(m)
    out = []
    for _ in range(1000):
        if mb.is_empty():
            break
        got, taken = mb.fetch(budget)
        assert taken <= budget
        out.extend(got)
    assert out == msgs
    assert mb.used_bytes == 0


#: One mailbox operation: an enqueue of a task message with 0-20
#: arguments (64, 128 or 192 wire bytes) or of a data message (128, 320
#: or 576 wire bytes, the last larger than the mailbox), a fetch of 1-640
#: bytes (often not a whole number of frames, so the head is left part
#: fetched), or a drain_all.
_mailbox_op = st.one_of(
    st.tuples(st.just("enqueue"), st.just("task"),
              st.integers(min_value=0, max_value=20)),
    st.tuples(st.just("enqueue"), st.just("data"),
              st.sampled_from((64, 304, 560))),
    st.tuples(st.just("fetch"), st.just(""),
              st.integers(min_value=1, max_value=640)),
    st.tuples(st.just("drain_all"), st.just(""), st.just(0)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_mailbox_op, max_size=60))
def test_used_bytes_tracks_pending_messages(ops):
    """After every operation ``used_bytes`` is the summed wire size of
    the pending messages (a part-fetched head counts whole), and it is 0
    exactly when the mailbox is empty."""
    mb = Mailbox(512)
    ref = []  # the messages the mailbox should hold, oldest first
    for i, (op, kind, n) in enumerate(ops):
        if op == "enqueue":
            if kind == "task":
                msg = TaskMessage(src_unit=0, dst_unit=1, task=Task(
                    func="f", ts=0, data_addr=i * 64, args=tuple(range(n)),
                ))
            else:
                msg = DataMessage(src_unit=0, dst_unit=1, block_id=i,
                                  block_bytes=n)
            free = mb.capacity_bytes - sum(m.wire_bytes for m in ref)
            admitted = mb.enqueue(msg)
            assert admitted is (msg.wire_bytes <= free)
            if admitted:
                ref.append(msg)
        elif op == "fetch":
            got, taken = mb.fetch(n)
            assert got == ref[:len(got)] and taken <= n
            del ref[:len(got)]
        else:
            assert mb.drain_all() == ref
            ref = []
        assert list(mb.pending_messages()) == ref
        assert mb.used_bytes == sum(m.wire_bytes for m in ref)
        assert (mb.used_bytes == 0) is (not ref) is mb.is_empty()
        assert mb.free_bytes == mb.capacity_bytes - mb.used_bytes
