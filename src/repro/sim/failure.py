"""Fault injection and the failure detector.

Faults follow the paper's model: fail-silent whole-processor crashes.
A fault at time *t* destroys every task resident on the processor and all
of its state; the processor never transmits again.

Detection combines two mechanisms, both sanctioned by §1:

- the *detector service* ("passive node diagnosis" / self-checking nodes):
  every surviving processor receives a failure notice ``detector_delay``
  plus one network traversal after the death;
- *send-failure detection*: any message bound for a dead processor
  produces a sender-side notification after ``detection_timeout`` —
  usually earlier than the detector for actively communicating peers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import Machine


@dataclass(frozen=True)
class Fault:
    """Kill processor ``node`` at sim time ``time``."""

    time: float
    node: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("fault time must be non-negative")
        if self.node < 0:
            raise ValueError("only real processors can fail (node >= 0)")


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered set of faults for one run."""

    faults: tuple = ()

    @staticmethod
    def of(*faults: Fault) -> "FaultSchedule":
        # Duplicate (time, node) entries are collapsed: injecting the
        # same crash twice is a schedule-authoring slip, not a second
        # fault (the injector would ignore it anyway, but a silently
        # double-counted schedule misleads len()/nodes() consumers).
        return FaultSchedule(tuple(sorted(set(faults), key=lambda f: (f.time, f.node))))

    @staticmethod
    def single(time: float, node: int) -> "FaultSchedule":
        return FaultSchedule((Fault(time, node),))

    @staticmethod
    def none() -> "FaultSchedule":
        return FaultSchedule(())

    def __iter__(self):
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def nodes(self) -> List[int]:
        return [f.node for f in self.faults]


class FaultInjector:
    """Schedules fault events and detector notifications on a machine."""

    def __init__(self, machine: "Machine", schedule: FaultSchedule):
        self.machine = machine
        self.schedule = schedule

    def arm(self) -> None:
        for fault in self.schedule:
            self.machine.queue.schedule(
                fault.time,
                lambda f=fault: self._inject(f),
                label=f"fault:kill-{fault.node}",
            )

    def _inject(self, fault: Fault) -> None:
        machine = self.machine
        node = machine.node(fault.node)
        if not node.alive:
            return  # already dead (duplicate schedule entry)
        node.kill()
        machine.metrics.failures_injected += 1
        machine.metrics.nodes_failed.append(fault.node)
        machine.trace.emit(machine.queue.now, fault.node, "node_failed")
        self._arm_detector(fault.node)

    def _arm_detector(self, dead: int) -> None:
        """Deliver failure notices to all survivors (and the super-root)."""
        machine = self.machine
        cost = machine.config.cost
        nemesis = machine.nemesis
        targets = [n for n in machine.all_nodes() if n.alive]
        for node in targets:
            delay = cost.detector_delay + machine.network.latency(dead, node.id)
            if nemesis is not None:
                delay += nemesis.detector_extra(dead, node.id)
            machine.queue.after(
                delay,
                lambda n=node, d=dead: n.on_failure_notice(d),
                label=f"detect:{dead}->{node.id}",
            )
