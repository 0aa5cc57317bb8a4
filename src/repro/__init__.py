"""repro — reproduction of Lin & Keller (ICPP 1986),
*Distributed Recovery in Applicative Systems*.

Quickstart
----------

The front door is :mod:`repro.api`: describe the experiment as one
typed, serializable :class:`~repro.api.RunSpec` via the fluent
``Experiment`` builder and run it:

>>> from repro import Experiment
>>> handle = (
...     Experiment.workload("prog:fib:10")
...     .policy("rollback")
...     .processors(4)
...     .fault(0.4, node=2)
...     .seed(7)
...     .run()
... )
>>> handle.result.value
55
>>> handle.verified
True

``handle.spec`` is the resolved canonical spec (``.to_json()`` /
``RunSpec.from_json`` round-trip exactly), ``handle.record`` the same
JSON dict a registry sweep would cache for this run.  The lower-level
pieces remain available for direct use:

>>> from repro import (
...     SimConfig, InterpWorkload, RollbackRecovery, FaultSchedule,
...     run_simulation,
... )
>>> from repro.lang.programs import get_program
>>> result = run_simulation(
...     InterpWorkload(get_program("fib", 10), name="fib(10)"),
...     SimConfig(n_processors=4, seed=7),
...     policy=RollbackRecovery(),
...     faults=FaultSchedule.single(time=200.0, node=2),
... )
>>> result.value
55

Package layout
--------------

- :mod:`repro.api`       — typed RunSpec layer: Experiment, Session,
  spec grammars (docs/API.md)
- :mod:`repro.lang`      — the applicative language substrate
- :mod:`repro.sim`       — the distributed machine simulator
- :mod:`repro.core`      — functional checkpointing, rollback, splice,
  replication (the paper's contribution)
- :mod:`repro.faults`    — composable fault models (nemesis)
- :mod:`repro.baselines` — periodic global checkpointing
- :mod:`repro.workloads` — synthetic call-tree generators, Figure-1 tree
- :mod:`repro.analysis`  — figure reproductions and their drivers
- :mod:`repro.exp`       — scenario registry + parallel sweep runner
- :mod:`repro.report`    — replication aggregation + statistical reports
"""

from repro.api import Experiment, RunHandle, RunSpec, Session
from repro.config import CostModel, SimConfig
from repro.core import (
    CheckpointTable,
    FaultTolerance,
    FunctionalCheckpoint,
    LevelStamp,
    NoFaultTolerance,
    ReplicatedExecution,
    RollbackRecovery,
    SpliceRecovery,
)
from repro.errors import ReproError, SpecError
from repro.lang import compile_program, run_program
from repro.sim import Fault, FaultSchedule, InterpWorkload, Machine, RunResult, TreeWorkload
from repro.sim.machine import run_simulation

__version__ = "1.1.0"

__all__ = [
    "CostModel",
    "SimConfig",
    "CheckpointTable",
    "Experiment",
    "FaultTolerance",
    "FunctionalCheckpoint",
    "LevelStamp",
    "NoFaultTolerance",
    "ReplicatedExecution",
    "RollbackRecovery",
    "RunHandle",
    "RunSpec",
    "Session",
    "SpliceRecovery",
    "ReproError",
    "SpecError",
    "compile_program",
    "run_program",
    "Fault",
    "FaultSchedule",
    "InterpWorkload",
    "Machine",
    "RunResult",
    "TreeWorkload",
    "run_simulation",
    "__version__",
]
