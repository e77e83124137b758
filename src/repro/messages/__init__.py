"""Message formats, mailboxes and bridge buffers."""

from .types import (
    DataMessage,
    Message,
    MessageType,
    MESSAGE_BYTES,
    TaskMessage,
    frame_bytes,
    sub_message_count,
    unknown_message,
)
from .mailbox import Mailbox
from .buffers import MessageBuffer

__all__ = [
    "DataMessage",
    "Message",
    "MessageType",
    "MESSAGE_BYTES",
    "TaskMessage",
    "frame_bytes",
    "sub_message_count",
    "unknown_message",
    "Mailbox",
    "MessageBuffer",
]
