"""``repro.api`` — one typed, serializable experiment description.

Every subsystem in this repo (the CLI, the scenario registry, the
oracle checker, the examples) describes an experiment the same way: a
:class:`RunSpec` composed of typed sub-specs, each parseable from its
string grammar, the whole serializable to one canonical JSON document.

Quickstart::

    from repro.api import Experiment

    handle = (
        Experiment.workload("prog:tak:7:4:2")
        .policy("splice")
        .nemesis("partition:start=0.3,dur=0.25,group=0-1")
        .processors(8)
        .seed(7)
        .run()
    )
    print(handle.summary())
    print(handle.record["makespan"], handle.verified)

Or, batch form::

    from repro.api import Experiment, Session

    session = Session()
    for frac in (0.3, 0.5, 0.7):
        session.run(
            Experiment.workload("balanced:4:2:30").policy("rollback")
            .fault(frac, node=1).seed(0)
        )
    print([h.record["slowdown"] for h in session.handles])

See ``docs/API.md`` for the grammar reference and the full tour.
"""

from repro.api.session import (
    Experiment,
    RunHandle,
    Session,
    execute,
)
from repro.api.specs import (
    RUNSPEC_SCHEMA,
    ArrivalSpec,
    FaultSpec,
    MachineSpec,
    NemesisClause,
    NemesisSpec,
    PolicySpec,
    RunSpec,
    WorkloadSpec,
)
from repro.errors import SpecError

__all__ = [
    "RUNSPEC_SCHEMA",
    "ArrivalSpec",
    "Experiment",
    "FaultSpec",
    "MachineSpec",
    "NemesisClause",
    "NemesisSpec",
    "PolicySpec",
    "RunHandle",
    "RunSpec",
    "Session",
    "SpecError",
    "WorkloadSpec",
    "execute",
]
