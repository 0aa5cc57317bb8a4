"""Packet types exchanged between processors.

These mirror the §4.2 protocol's received-packet cases:

- ``TaskPacketMsg``   — "task packet: Execute the task …"
- ``ResultMsg``       — "forward result: Interpret the level stamp …";
  the receiving node classifies the sender's stamp as *child*,
  *grandchild*, or *other* relative to its own tasks.
- ``PlacementAck``    — the acknowledgement that moves a spawn record from
  transient state *b* to state *c* in Figure 6.
- ``FailureNotice``   — "error-detection: …", delivered by the failure
  detector (and by gossip from nodes that discover a death first).

Messages are immutable; the network stamps delivery times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.packets import ReturnAddress, TaskPacket
from repro.core.stamps import LevelStamp


@dataclass(frozen=True, slots=True)
class Message:
    """Base class: source and destination node ids."""

    src: int
    dst: int

    def describe(self) -> str:  # pragma: no cover - overridden
        return f"{type(self).__name__} {self.src}->{self.dst}"


@dataclass(frozen=True, slots=True)
class TaskPacketMsg(Message):
    """Carries a task packet toward an executor."""

    packet: TaskPacket = None  # type: ignore[assignment]

    def describe(self) -> str:
        return f"task {self.packet.describe()} {self.src}->{self.dst}"


@dataclass(frozen=True, slots=True)
class PlacementAck(Message):
    """Executor tells the spawning parent where the child landed."""

    stamp: LevelStamp = None  # type: ignore[assignment]
    replica: int = 0
    executor: int = 0
    instance: int = 0
    parent_instance: int = 0

    def describe(self) -> str:
        return f"ack [{self.stamp}] placed on {self.executor} {self.src}->{self.dst}"


@dataclass(frozen=True, slots=True)
class ResultMsg(Message):
    """A completed task forwards its answer.

    ``sender_stamp`` is the completed task's stamp; the receiving node
    interprets it relative to the addressee:

    - distance 1 (child)      — normal return;
    - distance 2 (grandchild) — an orphan's salvaged result arriving at the
      grandparent node (splice recovery, §4.2);
    - anything else           — ignored, per the protocol's rule of thumb.

    ``addressee`` names the task instance the sender believed it was
    returning to; after recovery the stamp, not the instance id, is what
    matches the result to a demand slot.
    ``relayed`` marks results forwarded grandparent→step-parent.
    """

    sender_stamp: LevelStamp = None  # type: ignore[assignment]
    replica: int = 0
    value: Any = None
    addressee: ReturnAddress = None  # type: ignore[assignment]
    #: uid of the instance that computed the value (provenance for the
    #: useful-work accounting; preserved across reroutes and relays).
    sender_instance: int = -1
    #: True once an orphan has redirected this result to its grandparent
    #: node (splice §4.2: "If the parent is dead, notify the grandparent").
    rerouted: bool = False
    #: True for grandparent-to-step-parent forwarding.
    relayed: bool = False

    def describe(self) -> str:
        kind = "relayed result" if self.relayed else "result"
        return f"{kind} [{self.sender_stamp}]={self.value!r} {self.src}->{self.dst}"


@dataclass(frozen=True, slots=True)
class FailureNotice(Message):
    """Notification that ``dead_node`` has been identified as faulty."""

    dead_node: int = 0

    def describe(self) -> str:
        return f"failure-notice dead={self.dead_node} {self.src}->{self.dst}"
