"""Run metrics.

Counters are the quantitative face of the paper's claims: fault-free
overhead (checkpoints recorded, packet copies held), recovery cost
(reissues, wasted steps), and splice's benefit (salvaged results vs
recomputed ones).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class Metrics:
    """Counters accumulated over one machine run."""

    # Task lifecycle
    tasks_spawned: int = 0
    tasks_accepted: int = 0
    tasks_completed: int = 0
    tasks_aborted: int = 0
    tasks_reissued: int = 0
    twins_created: int = 0

    # Work accounting (reduction steps)
    steps_total: int = 0
    steps_wasted: int = 0  # steps spent in instances that later aborted
    steps_salvaged: int = 0  # steps whose results were spliced into twins

    # Checkpointing
    checkpoints_recorded: int = 0
    checkpoints_dropped: int = 0
    checkpoint_peak_held: int = 0

    # Results
    results_delivered: int = 0
    results_duplicate: int = 0
    results_ignored: int = 0
    results_orphan_rerouted: int = 0
    results_salvaged: int = 0

    # Failure handling
    failures_injected: int = 0
    failures_detected: int = 0
    delivery_failures: int = 0
    #: Ids of processors actually killed, in death order — covers both
    #: the machine's fault schedule and nemesis crash/cascade models
    #: (survivor statistics must not depend on how a crash was injected).
    nodes_failed: list = field(default_factory=list)
    #: Failure-detection events on which a policy actually reissued work
    #: (the recovery-quality counterpart of failures_detected, which also
    #: counts detections with nothing checkpointed locally).
    recoveries_triggered: int = 0
    #: Root value disagreed with the sequential oracle (a recovery bug or
    #: an adversary the scheme provably cannot mask).
    oracle_mismatch: bool = False

    # Nemesis (fault injection beyond crashes; see repro.faults)
    nemesis_dropped: int = 0
    nemesis_duplicated: int = 0
    nemesis_delayed: int = 0
    nemesis_partition_blocked: int = 0
    nemesis_slowdown_time: float = 0.0

    # Replication / voting
    votes_recorded: int = 0
    votes_decided: int = 0

    # Messaging
    messages_total: int = 0
    message_hops: int = 0

    # Per-node busy time
    busy_time: Dict[int, float] = field(default_factory=dict)

    def add_busy(self, node: int, duration: float) -> None:
        self.busy_time[node] = self.busy_time.get(node, 0.0) + duration

    @property
    def nemesis_events(self) -> int:
        """Total delivery interferences the nemesis injected."""
        return (
            self.nemesis_dropped
            + self.nemesis_duplicated
            + self.nemesis_delayed
            + self.nemesis_partition_blocked
        )

    def utilization(self, makespan: float) -> Dict[int, float]:
        """Busy fraction per node over the run."""
        if makespan <= 0:
            return {n: 0.0 for n in self.busy_time}
        return {n: t / makespan for n, t in sorted(self.busy_time.items())}

    def summary_rows(self) -> list:
        """Rows for an ASCII summary table (label, value)."""
        return [
            ("tasks spawned", self.tasks_spawned),
            ("tasks completed", self.tasks_completed),
            ("tasks aborted", self.tasks_aborted),
            ("tasks reissued", self.tasks_reissued),
            ("twins created", self.twins_created),
            ("steps total", self.steps_total),
            ("steps wasted", self.steps_wasted),
            ("results salvaged", self.results_salvaged),
            ("recoveries triggered", self.recoveries_triggered),
            ("nemesis events", self.nemesis_events),
            ("checkpoints recorded", self.checkpoints_recorded),
            ("checkpoint peak held", self.checkpoint_peak_held),
            ("messages total", self.messages_total),
            ("message hops", self.message_hops),
        ]
