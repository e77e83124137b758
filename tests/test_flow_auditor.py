"""Message-lifecycle auditor tests (the runtime counterpart of SL011/SL012).

Three groups, mirroring tests/test_sanitizer.py's contract:

1. negative tests -- every conservation check must fire on the
   corruption it guards against (leak, double delivery, phantom
   delivery, duplicate send, unrecorded drop);
2. positive tests -- real runs across fabric designs finish with a
   clean conservation report;
3. equivalence -- the auditor observes, it must never perturb: runs
   with auditing on are bit-identical to plain runs, and plain runs
   carry zero instance-level hooks (no fast-path overhead).
"""

from dataclasses import replace

import pytest

from repro.apps import make_app
from repro.config import Design, default_config, tiny_config
from repro.flow.auditor import FlowAuditError, MessageAuditor
from repro.messages.mailbox import Mailbox
from repro.messages.types import DataMessage, TaskMessage
from repro.runtime.runner import run_app
from repro.runtime.task import Task


def _task_msg(workload=4):
    task = Task(func="fixture", ts=0, data_addr=0, workload=workload)
    return TaskMessage(src_unit=0, dst_unit=1, task=task)


def _data_msg():
    return DataMessage(src_unit=0, dst_unit=1, block_id=3, home_unit=0)


# ----------------------------------------------------------------------
# negative tests: every check must fire
# ----------------------------------------------------------------------
def test_leak_detected_when_queue_drained():
    auditor = MessageAuditor()
    msg = _task_msg()
    auditor.on_created(msg)
    with pytest.raises(FlowAuditError, match="leak"):
        auditor.verify(resident=[], pending_events=0)


def test_in_transit_message_tolerated_while_events_pending():
    auditor = MessageAuditor()
    msg = _task_msg()
    auditor.on_created(msg)
    # Still riding in a scheduled delivery callback: not a leak yet.
    report = auditor.verify(resident=[], pending_events=1)
    assert report["in_flight_by_type"] == {"task": 1}


def test_resident_message_is_not_a_leak():
    auditor = MessageAuditor()
    msg = _task_msg()
    auditor.on_created(msg)
    report = auditor.verify(
        resident=[("unit0.mailbox", (msg,))], pending_events=0
    )
    assert report["resident_by_container"] == {"unit0.mailbox": 1}
    assert report["in_flight_by_type"] == {"task": 1}


def test_double_delivery_detected():
    auditor = MessageAuditor()
    msg = _data_msg()
    auditor.on_created(msg)
    auditor.on_delivered(msg, 1)
    with pytest.raises(FlowAuditError, match="double delivery"):
        auditor.on_delivered(msg, 2)


def test_phantom_delivery_detected():
    auditor = MessageAuditor()
    with pytest.raises(FlowAuditError, match="never sent"):
        auditor.on_delivered(_task_msg(), 1)


def test_duplicate_send_detected():
    auditor = MessageAuditor()
    msg = _task_msg()
    auditor.on_created(msg)
    with pytest.raises(FlowAuditError, match="duplicate send"):
        auditor.on_created(msg)


def test_resident_but_never_sent_detected():
    auditor = MessageAuditor()
    with pytest.raises(FlowAuditError, match="never sent"):
        auditor.verify(
            resident=[("unit0.mailbox", (_task_msg(),))],
            pending_events=0,
        )


def test_resident_after_delivery_detected():
    auditor = MessageAuditor()
    msg = _task_msg()
    auditor.on_created(msg)
    auditor.on_delivered(msg, 1)
    with pytest.raises(FlowAuditError, match="already delivered"):
        auditor.verify(
            resident=[("unit0.mailbox", (msg,))], pending_events=0
        )


def test_unrecorded_drop_detected():
    # A container rejected a message, but the auditor's wrappers never
    # saw it: the drop bypassed stats.
    auditor = MessageAuditor()
    msg = _task_msg()
    auditor.on_created(msg)
    auditor.on_delivered(msg, 1)
    with pytest.raises(FlowAuditError, match="drops not recorded"):
        auditor.verify(resident=[], pending_events=0, container_dropped=1)


def test_creation_bookkeeping_corruption_detected():
    auditor = MessageAuditor()
    msg = _task_msg()
    auditor.on_created(msg)
    auditor.created_by_type["task"] = 2  # tamper with the counter
    with pytest.raises(FlowAuditError, match="bookkeeping corrupt"):
        auditor.verify(resident=[], pending_events=1)


def test_intentional_leak_caught_through_real_containers():
    """End-to-end negative: a message stolen out of a wrapped mailbox
    (enqueued, then drained without delivery) is reported as a leak."""
    auditor = MessageAuditor()
    mailbox = Mailbox(capacity_bytes=1024)
    auditor._wrap_container(mailbox, "unit0.mailbox", 0, "enqueue")
    msg = _task_msg()
    auditor.on_created(msg)
    assert mailbox.enqueue(msg)
    mailbox.drain_all()  # messages vanish without a delivery
    with pytest.raises(FlowAuditError, match="leak"):
        auditor.verify(
            resident=[("unit0.mailbox", mailbox.pending_messages())],
            pending_events=0,
            container_dropped=mailbox.dropped_messages,
        )


def test_rejections_observed_through_wrapped_container():
    auditor = MessageAuditor()
    mailbox = Mailbox(capacity_bytes=64)  # fits exactly one task message
    auditor._wrap_container(mailbox, "unit0.mailbox", 0, "enqueue")
    first, second = _task_msg(), _task_msg()
    for m in (first, second):
        auditor.on_created(m)
    assert mailbox.enqueue(first)
    assert not mailbox.enqueue(second)  # rejected: observed both sides
    assert auditor.rejected_by_container == {"unit0.mailbox": 1}
    assert mailbox.dropped_messages == 1
    report = auditor.verify(
        resident=[("unit0.mailbox", mailbox.pending_messages()),
                  ("unit0.backlog", (second,))],
        pending_events=0,
        container_dropped=mailbox.dropped_messages,
    )
    assert report["rejected_by_container"] == {"unit0.mailbox": 1}
    assert report["enqueued_by_level"] == {0: 1}


# ----------------------------------------------------------------------
# positive tests: real runs across designs audit clean
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "design", [Design.O, Design.B, Design.C, Design.R]
)
def test_clean_report_after_real_run(design, monkeypatch):
    monkeypatch.setenv("NDPBRIDGE_SANITIZE", "1")
    app = make_app("bfs", scale=0.1, seed=7)
    result = run_app(app, tiny_config(design))
    system = result.system
    assert system.auditor is not None
    report = system.auditor.last_report
    assert report is not None
    assert report["created_by_type"], "run produced no messages"
    # Conservation: everything created was delivered or is accounted
    # in-flight (finish() would have raised otherwise).
    for mtype, created in report["created_by_type"].items():
        assert created == (
            report["delivered_by_type"].get(mtype, 0)
            + report["in_flight_by_type"].get(mtype, 0)
        )


def test_clean_report_on_level2_hierarchy(monkeypatch):
    monkeypatch.setenv("NDPBRIDGE_SANITIZE", "1")
    app = make_app("bfs", scale=0.05, seed=7)
    cfg = default_config(Design.O)
    result = run_app(app, cfg.replace(comm=replace(cfg.comm, split_dimm=True)))
    system = result.system
    assert system.has_level2
    report = system.auditor.last_report
    # Traffic crossed every level of the hierarchy.
    assert report["enqueued_by_level"].get(2, 0) > 0


# ----------------------------------------------------------------------
# equivalence: auditing must never perturb the simulation
# ----------------------------------------------------------------------
def _run_metrics() -> tuple:
    app = make_app("bfs", scale=0.1, seed=7)
    result = run_app(app, tiny_config(Design.O))
    sim = result.system.sim
    return (result.metrics.makespan, result.metrics.tasks_executed,
            sim.events_processed)


def test_audited_run_bit_identical(monkeypatch):
    monkeypatch.delenv("NDPBRIDGE_SANITIZE", raising=False)
    plain = _run_metrics()
    monkeypatch.setenv("NDPBRIDGE_SANITIZE", "1")
    audited = _run_metrics()
    assert plain == audited


def test_plain_run_has_no_hooks(monkeypatch):
    """Zero fast-path overhead when disabled: no instance-level
    shadowing of the hot-path methods."""
    monkeypatch.delenv("NDPBRIDGE_SANITIZE", raising=False)
    app = make_app("ht", scale=0.03, seed=7)
    result = run_app(app, tiny_config(Design.O))
    system = result.system
    assert system.auditor is None
    for unit in system.units:
        assert "_send" not in vars(unit)
        assert "deliver_task_message" not in vars(unit)
        assert "deliver_data_message" not in vars(unit)
        assert "enqueue" not in vars(unit.mailbox)


def test_sanitize_implies_auditor(monkeypatch):
    monkeypatch.setenv("NDPBRIDGE_SANITIZE", "1")
    app = make_app("ht", scale=0.03, seed=7)
    result = run_app(app, tiny_config(Design.O))
    system = result.system
    assert system.sim.sanitize
    assert system.auditor is not None
    for unit in system.units:
        assert "_send" in vars(unit)
        assert "enqueue" in vars(unit.mailbox)
