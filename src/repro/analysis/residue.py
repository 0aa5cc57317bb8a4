"""Residue-effect sweep over the spawn states of Figure 6/7 (§4.3.2).

The paper typifies evaluation by the three-task sequence G → P → C and
argues that P's failure leaves no residue in *any* of the seven states of
the spawning state machine:

    a  G evaluating, P not yet spawned
    b  P's packet in transit (transient; only G knows P)
    c  P placed and acknowledged
    d  C's packet in transit (transient)
    e  C placed and evaluating
    f  C's result returned into P
    g  P's result returned into G (P reduced away)

The sweep probes a fault-free run for the boundary times of each state,
then re-runs the scenario killing P's processor inside every window, under
both recovery policies.  Residue-freedom is checked as: the run completes,
the answer verifies against the oracle, and no determinacy violation was
raised (a duplicated or contaminated result would trip it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.config import CostModel
from repro.core.policy import FaultTolerance
from repro.core.rollback import RollbackRecovery
from repro.core.splice import SpliceRecovery
from repro.core.stamps import LevelStamp
from repro.sim.behavior import TreeSpec, TreeTaskSpec
from repro.sim.failure import FaultSchedule
from repro.sim.trace import Trace
from repro.workloads.figure1 import pinned_machine

G_STAMP = LevelStamp.of(0)
P_STAMP = LevelStamp.of(0, 0)
C_STAMP = LevelStamp.of(0, 0, 0)

P_NODE = 1

STATES = ("a", "b", "c", "d", "e", "f", "g")


def _spec() -> TreeSpec:
    # Work values stretch each state's window so a mid-window kill is
    # unambiguous (windows are re-measured from the probe run anyway).
    return TreeSpec(
        {
            0: TreeTaskSpec(0, 30, (1,), post_work=20),  # G
            1: TreeTaskSpec(1, 40, (2,), post_work=40),  # P
            2: TreeTaskSpec(2, 80, ()),  # C
        }
    )


#: G, P and C each on its own processor, under a fast failure detector.
_PINS = {0: 0, 1: P_NODE, 2: 2}
_COST = CostModel(detector_delay=15.0, detection_timeout=10.0)


def _event_time(trace: Trace, kind: str, stamp: LevelStamp) -> Optional[float]:
    return next((r.time for r in trace.of_kind(kind) if r.stamp == stamp), None)


@dataclass(frozen=True)
class StateWindows:
    """Mid-window kill times for each Figure-6 state."""

    times: Dict[str, float]
    probe_makespan: float


def measure_windows(seed: int = 0) -> StateWindows:
    """Probe a fault-free run and derive a kill time inside each state."""
    probe = pinned_machine(_spec(), _PINS, SpliceRecovery(), "fig6-chain", cost=_COST, seed=seed)
    result = probe.run()
    if not result.completed:
        raise RuntimeError(f"probe run stalled: {result.stall_reason}")
    trace, p, c = result.trace, P_STAMP, C_STAMP
    t_spawn_p = _event_time(trace, "spawn", p)
    t_accept_p = _event_time(trace, "task_accepted", p)
    t_spawn_c = _event_time(trace, "spawn", c)
    t_accept_c = _event_time(trace, "task_accepted", c)
    t_c_result_in_p = _event_time(trace, "result_received", c)
    t_p_completed = _event_time(trace, "task_completed", p)
    t_p_result_in_g = _event_time(trace, "result_received", p)
    needed = [
        t_spawn_p, t_accept_p, t_spawn_c, t_accept_c,
        t_c_result_in_p, t_p_completed, t_p_result_in_g,
    ]
    if any(t is None for t in needed):
        raise RuntimeError("probe run missing expected events")

    def mid(lo: float, hi: float) -> float:
        if hi <= lo:
            return lo + 0.25
        return (lo + hi) / 2.0

    times = {
        "a": mid(0.0, t_spawn_p),
        "b": mid(t_spawn_p, t_accept_p),
        "c": mid(t_accept_p, t_spawn_c),
        "d": mid(t_spawn_c, t_accept_c),
        "e": mid(t_accept_c, t_c_result_in_p),
        "f": mid(t_c_result_in_p, t_p_completed),
        "g": mid(t_p_result_in_g, result.makespan),
    }
    return StateWindows(times=times, probe_makespan=result.makespan)


@dataclass(frozen=True)
class ResidueOutcome:
    """Result of killing P's node inside one state window."""

    state: str
    policy: str
    kill_time: float
    completed: bool
    verified: Optional[bool]
    makespan: float
    reissued: int
    salvaged: int
    aborted: int

    @property
    def residue_free(self) -> bool:
        return self.completed and self.verified is True


def residue_sweep(
    policies: Optional[Dict[str, Callable[[], FaultTolerance]]] = None,
    seed: int = 0,
) -> List[ResidueOutcome]:
    """Kill P's node in every state window under each policy."""
    if policies is None:
        policies = {"rollback": RollbackRecovery, "splice": SpliceRecovery}
    windows = measure_windows(seed)
    outcomes: List[ResidueOutcome] = []
    for pname, pfactory in policies.items():
        for state in STATES:
            kill_at = windows.times[state]
            machine = pinned_machine(_spec(), _PINS, pfactory(), "fig6-chain", cost=_COST, seed=seed)
            result = machine.run(faults=FaultSchedule.single(kill_at, P_NODE))
            outcomes.append(
                ResidueOutcome(
                    state=state,
                    policy=pname,
                    kill_time=kill_at,
                    completed=result.completed,
                    verified=result.verified,
                    makespan=result.makespan,
                    reissued=result.metrics.tasks_reissued,
                    salvaged=result.metrics.results_salvaged,
                    aborted=result.metrics.tasks_aborted,
                )
            )
    return outcomes
