"""Runtime message-lifecycle conservation auditing.

simlint's SL011/SL012 prove properties of the *code*; this module
proves the matching property of a *run*: every message the system ever
creates is accounted for at exit,

    created == delivered + in_flight

per message type, where ``in_flight`` messages must be physically
resident in some container (mailbox, backlog, scatter/up/backup buffer,
level-2 down buffer) or carried by a still-pending simulator event.  A
message that is neither -- created, never delivered, nowhere to be
found with the event queue drained -- is a **leak**; a message delivered
twice is a **double delivery**; a delivery of an id that was never sent
is a **phantom**; a container rejection the stats never saw is a
**bookkeeping hole**.

The auditor follows the sanitizer pattern of :mod:`repro.sim.engine`:
``NDPBRIDGE_SANITIZE=1`` turns it on, and every hook is installed by
shadowing methods on *instances*, so the class fast paths are untouched
and a non-sanitized run pays zero overhead.  Auditing is observation
only -- wrapped methods call straight through -- so sanitized runs stay
bit-identical to plain runs (asserted by tests/test_flow_auditor.py).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..messages.types import Message


class FlowAuditError(RuntimeError):
    """A message-lifecycle conservation violation."""


def _mtype(msg: Message) -> str:
    return msg.mtype.value


class MessageAuditor:
    """Tags every message id and proves conservation at run() exit."""

    def __init__(self) -> None:
        self._created: Dict[int, str] = {}       # msg_id -> mtype
        self._delivered: Dict[int, int] = {}     # msg_id -> delivery count
        self.created_by_type: Dict[str, int] = {}
        self.delivered_by_type: Dict[str, int] = {}
        #: enqueue/push admissions per bridge level (0 = unit mailbox,
        #: 1 = level-1 buffers, 2 = level-2 down buffers).
        self.enqueued_by_level: Dict[int, int] = {}
        #: backpressure rejections observed per wrapped container.
        self.rejected_by_container: Dict[str, int] = {}
        self.last_report: Optional[Dict[str, Any]] = None
        #: (name, container) pairs whose dropped_messages we cross-check.
        self._wrapped_containers: List[Tuple[str, Any]] = []

    # ------------------------------------------------------------------
    # observation hooks
    # ------------------------------------------------------------------
    def on_created(self, msg: Message) -> None:
        if msg.msg_id in self._created:
            raise FlowAuditError(
                f"duplicate send: {_mtype(msg)} message "
                f"{msg.msg_id} entered the fabric twice"
            )
        self._created[msg.msg_id] = _mtype(msg)
        self.created_by_type[_mtype(msg)] = (
            self.created_by_type.get(_mtype(msg), 0) + 1
        )

    def on_delivered(self, msg: Message, unit_id: int) -> None:
        if msg.msg_id not in self._created:
            raise FlowAuditError(
                f"phantom delivery: {_mtype(msg)} message {msg.msg_id} "
                f"delivered to unit {unit_id} but was never sent"
            )
        count = self._delivered.get(msg.msg_id, 0)
        if count >= 1:
            raise FlowAuditError(
                f"double delivery: {_mtype(msg)} message {msg.msg_id} "
                f"delivered {count + 1} times (last to unit {unit_id})"
            )
        self._delivered[msg.msg_id] = count + 1
        self.delivered_by_type[_mtype(msg)] = (
            self.delivered_by_type.get(_mtype(msg), 0) + 1
        )

    def on_enqueued(self, msg: Message, level: int) -> None:
        self.enqueued_by_level[level] = (
            self.enqueued_by_level.get(level, 0) + 1
        )

    def on_rejected(self, msg: Message, container: str) -> None:
        self.rejected_by_container[container] = (
            self.rejected_by_container.get(container, 0) + 1
        )

    # ------------------------------------------------------------------
    # instance-level hook installation (sanitizer pattern)
    # ------------------------------------------------------------------
    def attach(self, system: Any) -> None:
        """Install observation wrappers on every unit and bridge."""
        for unit in system.units:
            self._wrap_unit(unit)
        fabric = system.fabric
        for bridge in getattr(fabric, "rank_bridges", None) or ():
            self._wrap_level1(bridge)
        level2 = getattr(fabric, "level2", None)
        if level2 is not None:
            self._wrap_level2(level2)

    def _wrap_unit(self, unit: Any) -> None:
        auditor = self

        def send(msg: Message, _orig=unit._send) -> None:
            auditor.on_created(msg)
            return _orig(msg)

        unit._send = send

        def deliver_task(
            msg: Message,
            _orig=unit.deliver_task_message,
            _uid=unit.unit_id,
        ) -> None:
            auditor.on_delivered(msg, _uid)
            return _orig(msg)

        unit.deliver_task_message = deliver_task

        def deliver_data(
            msg: Message,
            _orig=unit.deliver_data_message,
            _uid=unit.unit_id,
        ) -> None:
            auditor.on_delivered(msg, _uid)
            return _orig(msg)

        unit.deliver_data_message = deliver_data
        self._wrap_container(
            unit.mailbox, f"unit{unit.unit_id}.mailbox", 0, "enqueue"
        )

    def _wrap_container(
        self, container: Any, name: str, level: int, method: str
    ) -> None:
        auditor = self
        orig = getattr(container, method)

        def wrapped(
            msg: Message, _orig=orig, _name=name, _level=level
        ) -> bool:
            admitted = _orig(msg)
            if admitted:
                auditor.on_enqueued(msg, _level)
            else:
                auditor.on_rejected(msg, _name)
            return admitted

        setattr(container, method, wrapped)
        self._wrapped_containers.append((name, container))

    def _wrap_level1(self, bridge: Any) -> None:
        auditor = self
        rank = bridge.global_rank
        self._wrap_container(
            bridge.up_mailbox, f"bridge{rank}.up_mailbox", 1, "push"
        )
        for uid in sorted(bridge.scatter_buffers):
            self._wrap_container(
                bridge.scatter_buffers[uid],
                f"bridge{rank}.scatter{uid}",
                1,
                "push",
            )

        def overflow(
            msg: Message, route_key: int, _orig=bridge._overflow
        ) -> None:
            _orig(msg, route_key)
            auditor.on_enqueued(msg, 1)

        bridge._overflow = overflow

    def _wrap_level2(self, level2: Any) -> None:
        auditor = self
        for rank, buf in enumerate(level2.down_buffers):
            self._wrap_container(
                buf, f"level2.down{rank}", 2, "push"
            )

            def force(
                msg: Message, _orig=buf.force_push, _rank=rank
            ) -> None:
                _orig(msg)
                auditor.on_enqueued(msg, 2)

            buf.force_push = force

    # ------------------------------------------------------------------
    # end-of-run verification
    # ------------------------------------------------------------------
    def finish(self, system: Any) -> Dict[str, Any]:
        """Verify conservation at run() exit; raises FlowAuditError."""
        resident = list(system._resident())
        container_dropped = sum(
            container.dropped_messages
            for _, container in self._wrapped_containers
        )
        return self.verify(
            resident, system.sim.pending_events, container_dropped
        )

    def verify(
        self,
        resident: List[Tuple[str, Tuple[Message, ...]]],
        pending_events: int,
        container_dropped: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Prove ``created == delivered + in_flight``.

        ``resident`` is a ``(container_name, messages)`` snapshot;
        ``pending_events`` is the simulator's live event count (messages
        may legitimately ride in scheduled delivery callbacks, so
        unlocated in-flight ids are a leak only once the queue is
        empty).  ``container_dropped`` cross-checks the containers' own
        rejection counters against what the auditor observed.
        """
        # -- internal bookkeeping must recount exactly -------------------
        recount: Dict[str, int] = {}
        for mtype in self._created.values():
            recount[mtype] = recount.get(mtype, 0) + 1
        if recount != self.created_by_type:
            raise FlowAuditError(
                f"creation bookkeeping corrupt: per-id tags recount to "
                f"{recount} but counters say {self.created_by_type}"
            )

        # -- locate every outstanding id ---------------------------------
        outstanding = {
            msg_id: mtype
            for msg_id, mtype in self._created.items()
            if not self._delivered.get(msg_id)
        }
        resident_ids: Dict[int, str] = {}
        resident_by_container: Dict[str, int] = {}
        for name, msgs in resident:
            if msgs:
                resident_by_container[name] = len(msgs)
            for msg in msgs:
                if msg.msg_id not in self._created:
                    raise FlowAuditError(
                        f"container {name} holds {_mtype(msg)} message "
                        f"{msg.msg_id} that was never sent"
                    )
                if self._delivered.get(msg.msg_id):
                    raise FlowAuditError(
                        f"container {name} still holds message "
                        f"{msg.msg_id} that was already delivered"
                    )
                resident_ids[msg.msg_id] = name

        unlocated = sorted(
            msg_id
            for msg_id in outstanding
            if msg_id not in resident_ids
        )
        if unlocated and pending_events == 0:
            detail = ", ".join(
                f"{msg_id}({outstanding[msg_id]})"
                for msg_id in unlocated[:8]
            )
            raise FlowAuditError(
                f"message leak: {len(unlocated)} message(s) created but "
                f"neither delivered nor resident in any container with "
                f"the event queue drained: {detail}"
            )

        # -- rejection accounting ----------------------------------------
        rejected_seen = sum(self.rejected_by_container.values())
        if (
            container_dropped is not None
            and container_dropped != rejected_seen
        ):
            raise FlowAuditError(
                f"drops not recorded in stats: containers count "
                f"{container_dropped} rejection(s) but the auditor "
                f"observed {rejected_seen}"
            )

        # -- the conservation equation, per type -------------------------
        in_flight_by_type: Dict[str, int] = {}
        for msg_id, mtype in outstanding.items():
            in_flight_by_type[mtype] = in_flight_by_type.get(mtype, 0) + 1
        for mtype in sorted(
            set(self.created_by_type) | set(self.delivered_by_type)
        ):
            created = self.created_by_type.get(mtype, 0)
            delivered = self.delivered_by_type.get(mtype, 0)
            in_flight = in_flight_by_type.get(mtype, 0)
            if created != delivered + in_flight:
                raise FlowAuditError(
                    f"conservation violated for {mtype}: "
                    f"created={created} != delivered={delivered} + "
                    f"in_flight={in_flight}"
                )

        report: Dict[str, Any] = {
            "created_by_type": dict(self.created_by_type),
            "delivered_by_type": dict(self.delivered_by_type),
            "in_flight_by_type": in_flight_by_type,
            "resident_by_container": resident_by_container,
            "enqueued_by_level": dict(self.enqueued_by_level),
            "rejected_by_container": dict(self.rejected_by_container),
            "pending_events": pending_events,
        }
        self.last_report = report
        return report
