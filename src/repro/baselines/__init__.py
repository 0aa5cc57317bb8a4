"""Baseline fault-tolerance schemes the paper argues against.

- :mod:`repro.baselines.periodic` — synchronous periodic global
  checkpointing (§2's comparator; refs [3], [5], [15]).

Triple modular redundancy (Misunas [11]) needs no module of its own:
§5.3 emulates it by replicating task packets, so it *is*
``ReplicatedExecution(k=3)`` (``--policy replicated:3``).
"""

from repro.baselines.periodic import PeriodicCheckpointSimulator, PeriodicRunResult

__all__ = [
    "PeriodicCheckpointSimulator",
    "PeriodicRunResult",
]
