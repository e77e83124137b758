"""Message formats (paper Fig. 5).

Two message types cross the bridges:

* **task messages** move a task to the unit holding (or borrowing) its data
  element;
* **data messages** move a ``G_xfer``-sized data block for data-first load
  balancing (either *lending* it to a receiver or *returning* it home).

The paper's third type, the state message a child returns to a
STATE-GATHER, is modelled without a message object: the bridge occupies
its chip links for the gather and reads each unit's
:meth:`~repro.ndp.unit.NDPUnit.collect_state` directly.

Every message is framed into 64-byte sub-messages on the wire; larger
payloads span several sub-messages, matching the index field of Fig. 5.
A message's payload is fixed at construction, so its framed size is
computed once there and kept in the plain attribute ``size``, which
every mailbox and buffer operation reads (``wire_bytes`` returns it).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..sim import SimulationError

if TYPE_CHECKING:  # annotation only: config validation imports this module
    from ..runtime.task import Task

MESSAGE_BYTES = 64

_message_ids = itertools.count()


class MessageType(enum.Enum):
    TASK = "task"
    DATA = "data"


def frame_bytes(payload_bytes: int, frame: int = MESSAGE_BYTES) -> int:
    """Bytes on the wire after 64 B framing (sub-message padding)."""
    if payload_bytes <= 0:
        raise ValueError("payload must be positive")
    return frame * -(-payload_bytes // frame)


def sub_message_count(payload_bytes: int, frame: int = MESSAGE_BYTES) -> int:
    return frame_bytes(payload_bytes, frame) // frame


class Message:
    """Base class: routing metadata shared by all message types.

    Slotted, as is :class:`TaskMessage`: a run builds one task message
    per remote task.  ``size``, the framed bytes on the wire, is set
    once at construction.
    """

    __slots__ = ("src_unit", "dst_unit", "msg_id", "size")

    def __init__(
        self,
        src_unit: int,
        dst_unit: Optional[int],     # None while awaiting bridge assignment
        msg_id: Optional[int] = None,
    ) -> None:
        self.src_unit = src_unit
        self.dst_unit = dst_unit
        self.msg_id = next(_message_ids) if msg_id is None else msg_id
        self.size = frame_bytes(self.payload_bytes)

    @property
    def mtype(self) -> MessageType:
        raise NotImplementedError

    @property
    def payload_bytes(self) -> int:
        raise NotImplementedError

    @property
    def wire_bytes(self) -> int:
        """Framed bytes on the wire: ``size``."""
        return self.size

    @property
    def sub_messages(self) -> int:
        return sub_message_count(self.payload_bytes)


class TaskMessage(Message):
    """Push one task to a remote unit (remote child, or load balancing)."""

    __slots__ = ("task", "lb_assigned", "bounces")

    def __init__(
        self,
        src_unit: int,
        dst_unit: Optional[int],
        task: Task,
        lb_assigned: bool = False,   # part of a load-balancing bundle
        bounces: int = 0,            # times forwarded off a stale home
        msg_id: Optional[int] = None,
    ) -> None:
        # The base's fields, set here rather than by a super() call,
        # which every remote task would pay for.
        self.src_unit = src_unit
        self.dst_unit = dst_unit
        self.msg_id = next(_message_ids) if msg_id is None else msg_id
        self.task = task
        self.lb_assigned = lb_assigned
        self.bounces = bounces
        # payload_bytes, framed, without the property hop.
        self.size = frame_bytes(task.size_bytes)

    @property
    def mtype(self) -> MessageType:
        return MessageType.TASK

    @property
    def payload_bytes(self) -> int:
        return self.task.size_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskMessage(src_unit={self.src_unit}, "
            f"dst_unit={self.dst_unit}, msg_id={self.msg_id}, "
            f"task={self.task!r}, lb_assigned={self.lb_assigned}, "
            f"bounces={self.bounces})"
        )


@dataclass
class DataMessage(Message):
    """Move a data block for data-first scheduling (Section VI).

    A dataclass over the slotted base: it declares the base's three
    constructor fields itself, so its keyword constructor and
    :func:`dataclasses.replace` (which keeps ``msg_id``) cover them.
    """

    src_unit: int
    dst_unit: Optional[int]
    msg_id: int = field(default_factory=_message_ids.__next__)
    block_id: int = -1
    block_bytes: int = 256
    returning: bool = False          # block going back to its home unit
    lb_pending: bool = False         # awaiting receiver assignment at bridge
    bundle_workload: int = 0         # W of the tasks lent with this block
    home_unit: int = -1              # original home of the block
    #: Set by ``RunTracker.message_departed``, cleared on delivery.  Not
    #: an ``__init__`` argument, so a copy starts out not in flight.
    in_flight: bool = field(
        default=False, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.size = frame_bytes(self.payload_bytes)

    @property
    def mtype(self) -> MessageType:
        return MessageType.DATA

    @property
    def payload_bytes(self) -> int:
        # 16 B header (type/index/address) plus the block itself.
        return 16 + self.block_bytes


def unknown_message(msg: Message, where: str) -> SimulationError:
    """The error for a message of neither class, which no router or
    delivery path may drop: the tracker counts it in flight."""
    return SimulationError(
        f"{where} got a {type(msg).__name__} message, which is neither "
        f"a TaskMessage nor a DataMessage"
    )
