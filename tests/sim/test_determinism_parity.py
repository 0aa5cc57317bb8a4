"""Determinism parity: the no-trace fast path changes nothing but the trace.

Two guarantees, both load-bearing for the perf work:

1. **Trace on vs. off**: identical ``(workload, config, faults, policy)``
   inputs produce identical values, makespans, and metrics whether the
   run records a full :class:`Trace` or takes the no-trace fast path
   (``collect_trace=False``) — the only permitted difference is the
   trace itself.
2. **Golden digests**: the same runs reproduce the byte-identical
   canonical digests captured from the pre-optimization simulator core
   (``golden_digests.jsonl``, recorded at the commit before the hot-path
   overhaul).  Any change to scheduling, checkpointing, delivery, or
   accounting that alters observable behaviour trips this — speed must
   come from implementation, never semantics.

If a *deliberate* semantic change invalidates the digests, regenerate
the fixture with ``python tests/sim/test_determinism_parity.py`` and
say so in the commit.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.api import PolicySpec, WorkloadSpec
from repro.config import SimConfig
from repro.sim.failure import Fault, FaultSchedule
from repro.sim.machine import run_simulation

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.jsonl")

#: (workload, policy, processors, fault fracs [(frac, node)...], trace)
CASES = [
    ("balanced:6:2:25", "none", 4, [], True),
    ("balanced:6:2:25", "rollback", 4, [(0.4, 1)], True),
    ("balanced:6:2:25", "splice", 4, [(0.4, 1), (0.7, 2)], True),
    ("balanced:6:2:25", "replicated:3", 4, [(0.5, 2)], True),
    ("prog:fib:10", "rollback", 4, [(0.5, 1)], True),
    ("skewed:6:3:15", "splice", 8, [(0.3, 2)], True),
]

_IDS = [f"{c[0]}-{c[1]}-{len(c[3])}faults" for c in CASES]


def run_case(workload: str, policy: str, procs: int, fracs, collect_trace: bool):
    wf, _ = WorkloadSpec.parse(workload).build()
    config = SimConfig(n_processors=procs, seed=3)
    faults = FaultSchedule.none()
    if fracs:
        base = run_simulation(
            wf(), config, policy=PolicySpec.parse(policy).build(), collect_trace=False
        )
        faults = FaultSchedule.of(
            *(Fault(max(1.0, f * base.makespan), n) for f, n in fracs)
        )
    return run_simulation(
        wf(), config, policy=PolicySpec.parse(policy).build(), faults=faults,
        collect_trace=collect_trace,
    )


def digest(workload, policy, procs, fracs, trace):
    """Canonical observable summary of one run (must match pre-opt core)."""
    r = run_case(workload, policy, procs, fracs, trace)
    m = r.metrics
    return {
        "case": f"{workload}|{policy}|p{procs}|{fracs}",
        "completed": r.completed,
        "value": repr(r.value),
        "verified": r.verified,
        "makespan": r.makespan,
        "tasks": [
            m.tasks_spawned, m.tasks_accepted, m.tasks_completed,
            m.tasks_aborted, m.tasks_reissued, m.twins_created,
        ],
        "steps": [m.steps_total, m.steps_wasted, m.steps_salvaged],
        "checkpoints": [
            m.checkpoints_recorded, m.checkpoints_dropped, m.checkpoint_peak_held,
        ],
        "results": [
            m.results_delivered, m.results_duplicate, m.results_ignored,
            m.results_orphan_rerouted, m.results_salvaged,
        ],
        "messages": [m.messages_total, m.message_hops],
        "trace_len": len(r.trace),
    }


def load_golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestTraceOnOffParity:
    @pytest.mark.parametrize("case", CASES, ids=_IDS)
    def test_fast_path_changes_only_the_trace(self, case):
        workload, policy, procs, fracs, _ = case
        traced = digest(workload, policy, procs, fracs, True)
        fast = digest(workload, policy, procs, fracs, False)
        assert traced["trace_len"] > 0
        assert fast["trace_len"] == 0
        traced.pop("trace_len")
        fast.pop("trace_len")
        assert traced == fast

    def test_trace_off_really_records_nothing(self):
        result = run_case("balanced:5:2:10", "rollback", 4, [(0.5, 1)], False)
        assert len(result.trace) == 0 and not result.trace.enabled


class TestGoldenDigests:
    def test_fixture_matches_case_list(self):
        golden = load_golden()
        assert len(golden) == len(CASES)

    @pytest.mark.parametrize("index", range(len(CASES)), ids=_IDS)
    def test_run_matches_pre_optimization_digest(self, index):
        golden = load_golden()[index]
        current = digest(*CASES[index])
        assert current == golden, (
            "observable run behaviour diverged from the pre-optimization core; "
            "see the module docstring before regenerating the fixture"
        )


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        for case in CASES:
            fh.write(json.dumps(digest(*case), sort_keys=True) + "\n")
    print(f"regenerated {GOLDEN_PATH}")
