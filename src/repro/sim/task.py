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

An instance weighs what its state needs.  *Queued* (accepted, not yet
run) it is the instance plus its packet: the behaviour is built at the
first slice and each buffer at its first write.  *Live* it carries the
behaviour, its spawn records and whatever results are buffered.  Once
*reduced away* (completed, aborted or killed) :meth:`TaskInstance.retire`
leaves a tombstone — uid, packet, status, steps, result and the uids
whose results it consumed — which is all that lineage tests, duplicate
detection and the end-of-run waste accounting read.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, List, Mapping, Optional, Sequence, Tuple

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


#: A record holds its child's answer exactly when its state is this one.
_FULFILLED = SpawnState.FULFILLED

#: What an instance's buffers read as before their first write and after
#: :meth:`TaskInstance.retire`: one shared, read-only, empty mapping (a
#: write has to go through the method that creates the dict).  Its record
#: list reads as the empty tuple the same way.
NOTHING: Mapping = MappingProxyType({})


@dataclass(slots=True)
class SpawnRecord:
    """Parent-side state for one spawned child.

    The record *is* the functional checkpoint — it retains the packet —
    so the node's checkpoint table holds the record itself, and the
    record, not a second map, says which destination entry lists it
    (``checkpoint_dest``).
    """

    digit: Digit
    child_stamp: LevelStamp
    packet: TaskPacket  # the retained copy — the functional checkpoint
    state: SpawnState = SpawnState.FORMED
    executor: Optional[int] = None
    result: Any = None
    #: uid of the task instance whose result filled this record (used for
    #: useful-vs-wasted work accounting at run end).
    fulfilled_by: Optional[int] = None
    #: Values received from replicas (replication policy, §5.3); the list
    #: is allocated on the first vote, so other policies' records carry none.
    votes: Optional[List[Any]] = None
    #: Sequence number of the armed ack-timeout event, withdrawn on ack.
    ack_timer: Optional[int] = None
    #: The destination entry of the node's checkpoint table this record's
    #: packet is recorded in, or None while it has no checkpoint there.
    checkpoint_dest: Optional[int] = None
    #: True once a recovery policy has reissued this record's packet; the
    #: next fulfilment then closes a recovery (traced as recovery_complete).
    reissued: bool = False

    def fulfill(self, value: Any, by: Optional[int]) -> None:
        """c→g: the child's answer arrived, computed by instance ``by``
        (delivered, relayed or salvaged alike)."""
        self.result = value
        self.fulfilled_by = by
        self.state = SpawnState.FULFILLED

    def unfulfill(self) -> None:
        """g→c: un-receive the answer; the child is outstanding again at
        its last known executor (reversible's unwind)."""
        self.result = None
        self.fulfilled_by = None
        self.state = SpawnState.PLACED


class _Scattered(list):
    """A parent's record list once some record sits away from the index
    its digit names — a program's path-tuple digits, an int demanded out
    of order.  A plain list holds digit ``i`` at index ``i`` throughout."""

    __slots__ = ()


class TaskInstance:
    """One activation of a task packet on a node.

    Thousands of instances are live in a large run, so the class is
    ``__slots__``-ed; new per-instance state must be declared here — and
    should come to exist when first written, because most instances of a
    large run are queued leaves that have not run a step (see the module
    docstring for what each state holds).
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
        "queued",
        "consumed",
    )

    def __init__(self, uid: int, packet: TaskPacket, node: int, behavior=None):
        self.uid = uid
        self.packet = packet
        self.node = node
        #: None until the node runs the first slice (the root host is
        #: handed its behaviour), and again once retired.
        self.behavior = behavior
        self.status = TaskStatus.READY
        #: Spawn records in demand order (the empty tuple until the first):
        #: a plain list while each sits at the index its digit names, a
        #: :class:`_Scattered` one after; see :meth:`record_for_digit`.
        self.spawn_records: Sequence[SpawnRecord] = ()
        #: Salvaged results delivered before the corresponding demand was
        #: issued (splice recovery): consulted at demand time.
        self.inherited_results: Mapping[Digit, Any] = NOTHING
        #: Results that arrived and have not yet been consumed by a slice
        #: (written by :meth:`deliver`).
        self.pending_deliveries: Mapping[Digit, Any] = NOTHING
        self.steps_executed = 0
        self.result: Any = None
        #: True while this task's uid sits in its node's run queue — the
        #: O(1) mirror of queue membership the node maintains.
        self.queued = False
        #: Set by :meth:`retire`: what :meth:`consumed_uids` read off the
        #: spawn records before they were dropped.
        self.consumed: Optional[Tuple[int, ...]] = None

    # The three writers: each container comes to exist at its first entry.

    def add_record(self, record: SpawnRecord) -> None:
        records = self.spawn_records
        if not records:
            records = self.spawn_records = []
        digit = record.digit
        if (type(digit) is not int or digit != len(records)) and type(records) is list:
            records = self.spawn_records = _Scattered(records)
        records.append(record)

    def deliver(self, digit: Digit, value: Any) -> None:
        """Buffer a value for the next slice to consume."""
        if self.pending_deliveries:
            self.pending_deliveries[digit] = value
        else:
            self.pending_deliveries = {digit: value}

    def inherit(self, digit: Digit, value: Any, sender_uid: int) -> None:
        """Buffer a salvaged result that outran its demand."""
        if self.inherited_results:
            self.inherited_results[digit] = (value, sender_uid)
        else:
            self.inherited_results = {digit: (value, sender_uid)}

    def consumed_uids(self) -> Tuple[int, ...]:
        """Uids of the instances whose results filled this task's records
        — the edges the end-of-run waste accounting follows."""
        if self.consumed is not None:
            return self.consumed
        if not self.spawn_records:  # a leaf, or a task that never ran
            return ()
        return tuple(
            r.fulfilled_by
            for r in self.spawn_records
            if r.state is _FULFILLED and r.fulfilled_by is not None
        )

    def retire(self) -> None:
        """Reduce a task that stopped being live to its tombstone (state
        *g* seen from the child's side: "reduced away").

        Idempotent — a completed task may be aborted later as an orphan.
        """
        self.consumed = self.consumed_uids()  # its own answer once set
        self.behavior = None
        self.spawn_records = ()
        self.inherited_results = self.pending_deliveries = NOTHING

    @property
    def stamp(self) -> LevelStamp:
        return self.packet.stamp

    def record_for_child(self, child_stamp: LevelStamp) -> Optional[SpawnRecord]:
        if not self.stamp.is_parent_of(child_stamp):
            return None
        return self.record_for_digit(child_stamp.last_digit)

    def record_for_digit(self, digit: Digit) -> Optional[SpawnRecord]:
        """The record demanded under ``digit``, or None.

        A tree parent, the root host and the open-loop host demand digit
        ``i`` as their ``i``-th child, so an int digit is tried at its own
        index first, and in a plain list a miss there is an absence (the
        duplicate-demand test of every new demand costs O(1)).  Any other
        digit (a program's path tuple), or any digit once a record sits
        away from its index (:class:`_Scattered`), is found by a scan of
        the records.
        """
        records = self.spawn_records
        if type(digit) is int:
            if 0 <= digit < len(records):
                record = records[digit]
                if record.digit == digit:
                    return record
            if type(records) is not _Scattered:
                return None
        for record in records:
            if record.digit == digit:
                return record
        return None

    def unfulfilled_records(self) -> List[SpawnRecord]:
        return [r for r in self.spawn_records if r.state is not _FULFILLED]

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
