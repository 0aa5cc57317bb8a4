"""Drivers that steer the simulator into each Figure-5 case (§4.1).

Every driver builds a small pinned tree around a task P on processor 1
and a child C, kills processor 1 at a chosen moment, runs splice
recovery, and returns the observed case classification together with the
run result.  The drivers demonstrate that *all eight orderings arise in
the wild* and are each handled without contaminating the final answer —
the paper's central §4.1 argument, executed.

Scenario shapes (work units in reduction steps):

    case 1  kill before P spawns C
    case 2  C waits on a child pinned to the dead processor whose
            checkpoint is subsumed (the Figure-1 B5 geometry)
    case 3  C returns early; P still waits on a long sibling when killed
    case 4  slow failure detector: C's own rerouted result creates P'
    case 5  fast detector, long P re-execution: salvage beats the demand
    case 6  C' spawned before C's result lands: first result wins
    case 7  congested orphan: C' (on an idle node) beats C; C is the
            ignored duplicate
    case 8  P' already completed when C's result arrives: discarded
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.config import CostModel
from repro.core.cases import classify_from_trace
from repro.core.splice import SpliceRecovery
from repro.core.stamps import LevelStamp
from repro.sim.behavior import TreeSpec, TreeTaskSpec
from repro.sim.failure import FaultSchedule
from repro.sim.machine import RunResult
from repro.workloads.figure1 import pinned_machine

#: Stamps of the actors in every driver tree: the host demands the root G
#: as stamp 0; G's first child is P; P's first child is C.
G_STAMP = LevelStamp.of(0)
P_STAMP = LevelStamp.of(0, 0)
C_STAMP = LevelStamp.of(0, 0, 0)

P_NODE = 1  # the processor that dies


@dataclass(frozen=True)
class CaseOutcome:
    """Observed classification plus the run it came from."""

    expected_case: int
    observed_case: int
    result: RunResult

    @property
    def matches(self) -> bool:
        return self.expected_case == self.observed_case


def _run(
    nodes: Dict[int, TreeTaskSpec],
    pins: Dict[int, int],
    kill_at: float,
    expected_case: int,
    detector_delay: float = 30.0,
    pin_once: bool = True,
    n_processors: int = 4,
    seed: int = 0,
) -> CaseOutcome:
    machine = pinned_machine(
        TreeSpec(nodes), pins, SpliceRecovery(), f"fig5-case{expected_case}",
        cost=CostModel(detector_delay=detector_delay, detection_timeout=20.0),
        n_processors=n_processors, seed=seed, pin_once=pin_once,
    )
    result = machine.run(faults=FaultSchedule.single(kill_at, P_NODE))
    observed = classify_from_trace(result.trace, P_STAMP, C_STAMP)
    return CaseOutcome(expected_case=expected_case, observed_case=observed, result=result)


def drive_case_1() -> CaseOutcome:
    """Kill P's node before P's first slice finishes: C never invoked."""
    nodes = {
        0: TreeTaskSpec(0, 5, (1,)),  # G
        1: TreeTaskSpec(1, 50, (2,)),  # P — long enough to die mid-slice
        2: TreeTaskSpec(2, 30, ()),  # C
    }
    pins = {0: 0, 1: P_NODE, 2: 2}
    return _run(nodes, pins, kill_at=30.0, expected_case=1)


def drive_case_2() -> CaseOutcome:
    """C waits on grandchild D pinned to the dead node; D's checkpoint is
    subsumed by P's at the same node (the Figure-1 B5 geometry), so C can
    never complete."""
    nodes = {
        0: TreeTaskSpec(0, 5, (1,)),  # G — pinned on node 2 (holds P's ckpt)
        1: TreeTaskSpec(1, 5, (2,)),  # P
        2: TreeTaskSpec(2, 5, (3,)),  # C — on node 2 as well
        3: TreeTaskSpec(3, 400, ()),  # D — pinned to the dying node
    }
    pins = {0: 2, 1: P_NODE, 2: 2, 3: P_NODE}
    return _run(nodes, pins, kill_at=80.0, expected_case=2)


def drive_case_3() -> CaseOutcome:
    """C is quick and returns into P; P still waits on a long sibling E
    when its node dies, so C's answer dies with P and C' recomputes it."""
    nodes = {
        0: TreeTaskSpec(0, 5, (1,)),  # G
        1: TreeTaskSpec(1, 5, (2, 3)),  # P waits on C and E
        2: TreeTaskSpec(2, 10, ()),  # C — fast
        3: TreeTaskSpec(3, 500, ()),  # E — slow, elsewhere
    }
    pins = {0: 0, 1: P_NODE, 2: 2, 3: 3}
    return _run(nodes, pins, kill_at=100.0, expected_case=3)


def drive_case_4() -> CaseOutcome:
    """Slow detector: C finishes after P died; its rerouted result is what
    creates the (reactive) twin — C completed before P' was invoked."""
    nodes = {
        0: TreeTaskSpec(0, 5, (1,)),
        1: TreeTaskSpec(1, 5, (2,)),
        2: TreeTaskSpec(2, 60, ()),
    }
    pins = {0: 0, 1: P_NODE, 2: 2}
    return _run(nodes, pins, kill_at=40.0, expected_case=4, detector_delay=5000.0)


def drive_case_5() -> CaseOutcome:
    """Fast detector, long P re-execution: P' exists when C completes but
    has not yet demanded C' — the salvaged answer pre-empts the spawn."""
    nodes = {
        0: TreeTaskSpec(0, 5, (1,)),
        1: TreeTaskSpec(1, 200, (2,)),  # P' re-runs 200 steps before demanding
        2: TreeTaskSpec(2, 120, ()),
    }
    pins = {0: 0, 1: P_NODE, 2: 2}
    # P spawns C around t≈220 and C runs ~120 steps; kill at 260 so C is
    # invoked and in flight, completes ≈345 — after P' is invoked (≈280)
    # but before P' finishes re-running P's 200 steps and demands C'.
    return _run(nodes, pins, kill_at=260.0, expected_case=5, detector_delay=10.0)


def drive_case_6() -> CaseOutcome:
    """P' demands C' promptly; C's result arrives while C' is running —
    the first (orphan) answer is used, C''s duplicate is ignored."""
    nodes = {
        0: TreeTaskSpec(0, 5, (1,)),
        1: TreeTaskSpec(1, 5, (2,)),
        2: TreeTaskSpec(2, 150, ()),
    }
    pins = {0: 0, 1: P_NODE, 2: 2}
    return _run(nodes, pins, kill_at=40.0, expected_case=6, detector_delay=10.0)


def drive_case_7() -> CaseOutcome:
    """C shares its processor with long ballast (time-sliced), so the
    later-invoked C' on an idle processor finishes first; C's eventual
    result is the ignored duplicate.  P still waits on sibling F, so P'
    has not completed when C's result arrives."""
    nodes = {
        0: TreeTaskSpec(0, 5, (1, 4)),  # G spawns P and the ballast
        1: TreeTaskSpec(1, 5, (2, 3)),  # P waits on C and F
        2: TreeTaskSpec(2, 300, (), chunk=20),  # C — congested, time-sliced
        3: TreeTaskSpec(3, 900, ()),  # F — long sibling on node 3
        4: TreeTaskSpec(4, 900, (), chunk=20),  # ballast on C's node
    }
    pins = {0: 0, 1: P_NODE, 2: 2, 3: 3, 4: 2}
    return _run(nodes, pins, kill_at=40.0, expected_case=7, detector_delay=10.0)


def drive_case_8() -> CaseOutcome:
    """Like case 7 without the sibling: P' completes long before the
    congested C does; C's late result finds nobody and is discarded."""
    nodes = {
        0: TreeTaskSpec(0, 5, (1, 4)),
        1: TreeTaskSpec(1, 5, (2,)),
        2: TreeTaskSpec(2, 300, (), chunk=20),  # C — congested
        4: TreeTaskSpec(4, 900, (), chunk=20),  # ballast on C's node
    }
    pins = {0: 0, 1: P_NODE, 2: 2, 4: 2}
    return _run(nodes, pins, kill_at=40.0, expected_case=8, detector_delay=10.0)


CASE_DRIVERS: Dict[int, Callable[[], CaseOutcome]] = {
    1: drive_case_1,
    2: drive_case_2,
    3: drive_case_3,
    4: drive_case_4,
    5: drive_case_5,
    6: drive_case_6,
    7: drive_case_7,
    8: drive_case_8,
}


def drive_all_cases() -> Dict[int, CaseOutcome]:
    """Run every driver; keys are the expected case numbers."""
    return {n: driver() for n, driver in CASE_DRIVERS.items()}
