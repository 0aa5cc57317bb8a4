"""Task instances and spawn records.

A *task instance* is one physical activation of a task packet on a
processor.  The logical task (identified by its level stamp) may be
activated several times across failures; instances get distinct ids.

A *spawn record* is the parent side of one child spawn.  Its state field
walks the transitions of Figure 6:

    FORMED     (a→b)  packet formed, handed to the load balancer — the
                      transient state where only the parent knows the child;
    IN_TRANSIT (b)    absorbed by the network, no acknowledgement yet;
    PLACED     (c)    acknowledgement received, parent→child pointer known;
    FULFILLED  (g)    result received, child reduced away.

The record also *retains the packet copy* — that retained copy is the
implicit functional checkpoint of §2: "As a child task is spawned to a new
node, the parent task may retain a copy of the task packet.  This retained
copy is all that the parent needs to regenerate the child task."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.packets import TaskPacket
from repro.core.stamps import Digit, LevelStamp


class TaskStatus(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    SUSPENDED = "suspended"
    COMPLETED = "completed"
    ABORTED = "aborted"


class SpawnState(enum.Enum):
    FORMED = "a"
    IN_TRANSIT = "b"
    PLACED = "c"
    FULFILLED = "g"


@dataclass(slots=True)
class SpawnRecord:
    """Parent-side state for one spawned child."""

    digit: Digit
    child_stamp: LevelStamp
    packet: TaskPacket  # the retained copy — the functional checkpoint
    state: SpawnState = SpawnState.FORMED
    executor: Optional[int] = None
    executor_instance: Optional[int] = None
    result: Any = None
    has_result: bool = False
    #: uid of the task instance whose result filled this record (used for
    #: useful-vs-wasted work accounting at run end).
    fulfilled_by: Optional[int] = None
    #: Values received from replicas (replication policy, §5.3); the list
    #: is allocated on the first vote, so other policies' records carry none.
    votes: Optional[List[Any]] = None
    vote_decided: bool = False
    #: Scheduled ack-timeout event handle (cancelled on ack).
    ack_timer: Any = None
    #: True once this record's packet has a checkpoint in the node table.
    checkpointed: bool = False
    #: True once a recovery policy has reissued this record's packet; the
    #: next fulfilment then closes a recovery (traced as recovery_complete).
    reissued: bool = False

    def fulfill(self, value: Any) -> None:
        self.result = value
        self.has_result = True
        self.state = SpawnState.FULFILLED


class TaskInstance:
    """One activation of a task packet on a node.

    Thousands of instances are live in a large run, so the class is
    ``__slots__``-ed; new per-instance state must be declared here.
    """

    __slots__ = (
        "uid",
        "packet",
        "node",
        "behavior",
        "status",
        "spawn_records",
        "inherited_results",
        "pending_deliveries",
        "steps_executed",
        "result",
        "is_twin",
        "queued",
    )

    def __init__(self, uid: int, packet: TaskPacket, node: int, behavior):
        self.uid = uid
        self.packet = packet
        self.node = node
        self.behavior = behavior
        self.status = TaskStatus.READY
        #: Spawn records keyed by the child's stamp digit.
        self.spawn_records: Dict[Digit, SpawnRecord] = {}
        #: Salvaged results delivered before the corresponding demand was
        #: issued (splice recovery): consulted at demand time.
        self.inherited_results: Dict[Digit, Any] = {}
        #: Results that arrived and have not yet been consumed by a slice.
        self.pending_deliveries: Dict[Digit, Any] = {}
        self.steps_executed = 0
        self.result: Any = None
        self.is_twin = False
        #: True while this task's uid sits in its node's run queue — the
        #: O(1) mirror of queue membership the node maintains.
        self.queued = False

    @property
    def stamp(self) -> LevelStamp:
        return self.packet.stamp

    def record_for_child(self, child_stamp: LevelStamp) -> Optional[SpawnRecord]:
        if not self.stamp.is_parent_of(child_stamp):
            return None
        return self.spawn_records.get(child_stamp.last_digit)

    def unfulfilled_records(self) -> List[SpawnRecord]:
        return [r for r in self.spawn_records.values() if not r.has_result]

    def waiting_on(self, node_id: int) -> List[SpawnRecord]:
        """Unfulfilled records whose child was last known on ``node_id``."""
        return [
            r
            for r in self.unfulfilled_records()
            if r.executor == node_id
        ]

    def describe(self) -> str:
        return (
            f"task#{self.uid} [{self.stamp}] {self.packet.work.describe()} "
            f"{self.status.value} on node {self.node}"
        )

    def __repr__(self) -> str:
        return f"<TaskInstance {self.describe()}>"
