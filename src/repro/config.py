"""Simulation configuration and cost model.

All tunables of the machine simulator live here.  A simulation run is a
pure function of ``(workload, SimConfig, fault schedule)`` — the config
carries the seed, so two runs with equal configs produce identical traces.

Costs are expressed in abstract *time units*; one reduction step costs
``reduction_step`` units.  The defaults put message latency roughly an
order of magnitude above a reduction step, matching the loosely-coupled
regime Rediflow targeted (and the regime in which the paper's argument
about checkpoint-coordination costs is interesting).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

#: The canonical allowed values — SimConfig.validate, the spec layer
#: (repro.api), and the CLI argparse choices all read these, so adding
#: a topology/scheduler here is enough for every surface.
TOPOLOGIES = ("complete", "ring", "mesh", "hypercube", "star")
SCHEDULERS = ("gradient", "random", "round_robin", "local", "static")


@dataclass(frozen=True)
class CostModel:
    """Abstract costs charged by the simulator (all in sim-time units)."""

    #: Time per reduction step performed by a task.
    reduction_step: float = 1.0
    #: Parent-side cost of forming and emitting one child task packet.
    spawn_overhead: float = 2.0
    #: Cost of recording one functional checkpoint in the local table
    #: (paper §2: a table insert plus retaining the packet copy).
    checkpoint_overhead: float = 0.5
    #: Per-hop network latency for every message.
    hop_latency: float = 5.0
    #: Uniform jitter added to each message delivery, in [0, jitter).
    latency_jitter: float = 0.0
    #: Delay between an attempted send to a dead node and the sender
    #: learning about the failure (timeout/NACK, paper §1's "coding or
    #: timeout mechanisms").
    detection_timeout: float = 50.0
    #: Delay between a node's death and the failure-detector notifying each
    #: surviving processor ("passive node diagnosis", §1); the per-node
    #: notification additionally pays hop latency from the dead node.
    detector_delay: float = 30.0
    #: Parent-side timeout waiting for a placement acknowledgement before
    #: re-checking the child (state *b* of Figure 6).
    ack_timeout: float = 400.0
    #: Cost charged to a node for performing one recovery reissue.
    reissue_overhead: float = 2.0


@dataclass(frozen=True)
class SimConfig:
    """Machine-level configuration."""

    #: Number of (failable) processors.
    n_processors: int = 4
    #: Interconnection topology: ``complete``, ``ring``, ``mesh``,
    #: ``hypercube``, or ``star``.
    topology: str = "complete"
    #: Root seed for all stochastic streams.
    seed: int = 0
    #: Cost model.
    cost: CostModel = field(default_factory=CostModel)
    #: Load-balancing scheduler: ``gradient``, ``random``, ``round_robin``,
    #: ``local``, or ``static`` (stamp-hash placement).
    scheduler: str = "gradient"
    #: Number of replicas per task packet when the replication policy is
    #: active (§5.3); ignored by other policies.
    replication_factor: int = 3

    def with_(self, **overrides) -> "SimConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    def validate(self) -> None:
        """Raise ``ValueError`` for configurations the machine rejects."""
        if self.n_processors < 1:
            raise ValueError("n_processors must be >= 1")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology: {self.topology!r}")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(f"unknown scheduler: {self.scheduler!r}")
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if self.topology == "hypercube" and self.n_processors & (self.n_processors - 1):
            raise ValueError("hypercube topology requires a power-of-two node count")
