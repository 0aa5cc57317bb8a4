"""Loss notification and send-failure detection under message-drop models.

``Network._notify_loss`` and ``Node.on_delivery_failed`` were previously
exercised only via whole-node death (a message in flight to a processor
that died).  The nemesis drop models reach the same paths with the
destination still alive: a notified drop must feed the sender-side
detection machinery (the §1 "unreachable = faulty" inference), and a
silent drop must leave recovery to the parent's ack timeout.
"""

from __future__ import annotations

import pytest

from repro.api import PolicySpec, WorkloadSpec
from repro.config import CostModel, SimConfig
from repro.faults import MessageChaos, NemesisSchedule
from repro.sim.machine import Machine, run_simulation
from repro.sim.messages import PlacementAck, ResultMsg, TaskPacketMsg
from repro.workloads.trees import balanced_tree
from repro.sim.workload import TreeWorkload

WORKLOAD = "balanced:3:2:20"


def run_chaos(chaos: MessageChaos, policy="rollback", seed=0, trace=True):
    wf, _ = WorkloadSpec.parse(WORKLOAD).build()
    return run_simulation(
        wf(),
        SimConfig(n_processors=4, seed=seed),
        policy=PolicySpec.parse(policy).build(),
        collect_trace=trace,
        nemesis=NemesisSchedule.of(chaos),
    )


class TestNotifyLossDirect:
    """Unit-level: _notify_loss with a live destination (nemesis path)."""

    def make_machine(self):
        return Machine(
            SimConfig(n_processors=4, seed=0),
            TreeWorkload(balanced_tree(2, 2, 5), "tiny"),
            collect_trace=True,
        )

    def test_notify_loss_reaches_live_sender(self):
        machine = self.make_machine()
        msg = PlacementAck(src=0, dst=2, stamp=None, executor=2, instance=1,
                           parent_instance=99)
        machine.network._notify_loss(msg)
        assert machine.metrics.delivery_failures == 1
        # the notification is scheduled detection_timeout out
        while machine.queue.step() is not None:
            pass
        # the sender inferred the destination faulty (§1)
        assert 2 in machine.node(0).known_dead
        assert machine.metrics.failures_detected == 1

    def test_notify_loss_skips_dead_sender(self):
        machine = self.make_machine()
        machine.node(0).kill()
        machine.network._notify_loss(ResultMsg(src=0, dst=2))
        while machine.queue.step() is not None:
            pass
        assert machine.metrics.failures_detected == 0

    def test_drop_message_notify_routes_through_notify_loss(self):
        machine = self.make_machine()
        msg = TaskPacketMsg(src=1, dst=3, packet=None)
        machine.network.drop_message(msg, notify=True, reason="chaos")
        assert machine.metrics.nemesis_dropped == 1
        assert machine.metrics.delivery_failures == 1
        drops = machine.trace.of_kind("nemesis_drop")
        assert len(drops) == 1 and drops[0].detail["msg_type"] == "TaskPacketMsg"

    def test_silent_drop_skips_notify_loss(self):
        machine = self.make_machine()
        machine.network.drop_message(
            TaskPacketMsg(src=1, dst=3, packet=None), notify=False, reason="chaos"
        )
        assert machine.metrics.nemesis_dropped == 1
        assert machine.metrics.delivery_failures == 0

    def test_dropped_task_packet_rebalances_inbound_pending(self):
        machine = self.make_machine()
        machine.node(3).inbound_pending = 2
        machine.network.drop_message(
            TaskPacketMsg(src=1, dst=3, packet=None), notify=False, reason="chaos"
        )
        assert machine.node(3).inbound_pending == 1
        # non-packet drops leave the counter alone
        machine.network.drop_message(
            ResultMsg(src=1, dst=3), notify=False, reason="chaos"
        )
        assert machine.node(3).inbound_pending == 1


class TestDropModelsEndToEnd:
    def test_notified_drops_drive_send_failure_detection(self):
        # Every task packet and ack on the 0->1 link is lost with
        # notification: senders detect, write node 1 off, and re-place
        # the work; the run still completes and verifies.
        chaos = MessageChaos(
            drop={(0, 1): 1.0}, notify_drops=True
        )
        result = run_chaos(chaos)
        m = result.metrics
        assert result.completed and result.verified is True
        assert m.nemesis_dropped > 0
        assert m.delivery_failures >= m.nemesis_dropped
        assert m.failures_detected > 0 and m.failures_injected == 0
        failed = result.trace.of_kind("delivery_failed")
        assert failed, "on_delivery_failed never ran"

    def test_silent_drops_recover_via_ack_timeout(self):
        chaos = MessageChaos(drop=0.15)  # silent: no loss notification
        result = run_chaos(chaos)
        m = result.metrics
        assert result.completed and result.verified is True
        assert m.nemesis_dropped > 0
        assert m.delivery_failures == 0  # nobody was notified
        # the ack timers re-issued the lost spawns
        reissues = [
            r for r in result.trace.of_kind("recovery_reissue")
            if r.detail["reason"] == "ack-timeout"
        ]
        assert reissues, "ack-timeout path never fired"
        assert m.tasks_reissued >= len(reissues)

    def test_notified_drop_of_result_reroutes_or_aborts(self):
        # Force an undeliverable-result path without any real death:
        # block result traffic on every link out of node 1 mid-run via
        # notified drops of the packets that would ack... instead use
        # the partition-free scenario: drop task packets from node 2
        # with notify so node 2's sends mark peers dead, then its
        # completed results hit the known-dead short-circuit.
        chaos = MessageChaos(
            drop={(2, 0): 1.0, (2, 1): 1.0, (2, 3): 1.0}, notify_drops=True
        )
        result = run_chaos(chaos, policy="splice")
        assert result.completed and result.verified is True

    def test_faster_detection_than_ack_timeout(self):
        # The same drop schedule recovers sooner with notification than
        # silently (loss detection at detection_timeout=50 vs the
        # state-b ack timeout at 400) — the claim sim/failure.py makes
        # about send-failure detection, now pinned under a drop model.
        silent = run_chaos(MessageChaos(drop={(0, 1): 1.0}), trace=False)
        notified = run_chaos(
            MessageChaos(drop={(0, 1): 1.0}, notify_drops=True), trace=False
        )
        assert silent.completed and notified.completed
        assert notified.makespan < silent.makespan
