"""The fault-tolerance strategy interface.

All recovery behaviour is injected into the (policy-agnostic) machine
through these hooks.  The node calls them at the protocol points of §4.2:
packet arrival, spawn, placement acknowledgement, result arrival, result
undeliverable, and failure detection.

:class:`NoFaultTolerance` implements the do-nothing policy: no checkpoint
table, orphans abort, failures stall the program — the baseline every
recovery scheme is measured against (and the control in correctness
tests).

This surface is the extension point for competing recovery schemes:
the paper's own policies live in :mod:`repro.core` (rollback, splice,
replicated) and external competitors in :mod:`repro.policies`
(HEAL-style incremental repair, reversible backtracking).  A policy
that subclasses these hooks, has a row in the catalog table
``repro.api.specs.POLICY_PARAMS`` and is imported by
``PolicySpec.build`` is automatically reachable from every
scenario grid, nemesis schedule, arrival process, trace oracle, and
``repro report compare --axis policy`` — see docs/POLICIES.md.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.core.packets import TaskPacket

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import Machine
    from repro.sim.messages import PlacementAck, ResultMsg, TaskPacketMsg
    from repro.sim.node import Node
    from repro.sim.task import SpawnRecord, TaskInstance


class FaultTolerance:
    """Base policy: hooks default to the non-fault-tolerant behaviour."""

    name = "base"
    #: Whether parents arm the state-b acknowledgement timeout (§4.3.2).
    uses_ack_timers = True
    #: Whether nodes keep ``Node.spawn_index``, the child-stamp index of
    #: outstanding spawn records (only a policy that looks a record up by
    #: a stamp it was not handed pays for one).
    uses_spawn_index = False

    def __init__(self) -> None:
        self.machine: "Machine" = None  # set by attach()

    def attach(self, machine: "Machine") -> None:
        """Bind the policy to a machine (called once, before the run)."""
        self.machine = machine

    def make_node_state(self, node: "Node"):
        """Create per-node policy state (stored as ``node.ft_state``)."""
        return None

    # -- spawn path -----------------------------------------------------------

    def expand_spawn(
        self, node: "Node", task: "TaskInstance", record: "SpawnRecord"
    ) -> List[TaskPacket]:
        """Packets to emit for one spawn (replication returns k copies)."""
        return [record.packet]

    def placement_for(self, node: "Node", packet: TaskPacket) -> Optional[int]:
        """Fixed placement override, or None to use the load balancer."""
        return None

    def on_placement_ack(
        self, node: "Node", task: "TaskInstance", record: "SpawnRecord", ack: "PlacementAck"
    ) -> None:
        """Child's location is now known (spawn state b -> c)."""

    # -- execution path ---------------------------------------------------------

    def on_packet_received(self, node: "Node", msg: "TaskPacketMsg") -> bool:
        """Return True to consume the packet (e.g. replica deduplication)."""
        return False

    def on_result_received(self, node: "Node", msg: "ResultMsg") -> bool:
        """Return True to consume the result (voting, grandchild relay)."""
        return False

    def on_child_result(
        self, node: "Node", task: "TaskInstance", record: "SpawnRecord", value
    ) -> None:
        """A child's result was accepted into its record."""

    def on_task_completed(self, node: "Node", task: "TaskInstance") -> None:
        """A local task finished and its result is being forwarded."""

    # -- failure path -----------------------------------------------------------

    def on_result_undeliverable(
        self, node: "Node", msg: "ResultMsg", dead_node: int
    ) -> None:
        """A result could not reach its addressee's node.

        Default (and rollback, §3.2): "A task is also aborted if the result
        of the task cannot be forwarded to the parent task."
        """
        node.abort_completed_sender(msg, reason="orphan-return")

    def on_packet_undeliverable(
        self, node: "Node", msg: "TaskPacketMsg", dead_node: int
    ) -> None:
        """A task packet's carrier died in transit: re-place it.

        This is the state-b recovery of §4.3.2: "processor G times out and
        reissues a new task P.  The system acts as if the first invocation
        of P did not take place."
        """
        node.replace_packet(msg.packet)

    def on_failure_detected(self, node: "Node", dead_node: int) -> None:
        """The node learned that ``dead_node`` is faulty."""


class NoFaultTolerance(FaultTolerance):
    """No checkpointing, no recovery.  Fault-free runs are unaffected;
    any failure permanently loses the dead node's tasks (the run stalls)."""

    name = "none"
    uses_ack_timers = False

    def on_packet_undeliverable(self, node, msg, dead_node) -> None:
        # Without recovery machinery the packet is simply lost.
        if node.trace.enabled:
            node.trace.emit(
                node.machine.queue.now,
                node.id,
                "delivery_failed",
                msg_type="task_packet_lost",
                stamp=msg.packet.stamp,
                dead=dead_node,
            )
