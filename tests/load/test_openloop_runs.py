"""End-to-end open-loop runs: arrivals, congestion, metrics, oracles.

Three guarantees:

1. **Liveness under load**: every arrival process and every overflow
   policy completes the full injected stream and verifies against the
   per-tree oracles — congestion shedding must recover every shed
   packet, never lose a tree.
2. **Guarded fast path**: a spec without arrivals takes the exact
   pre-subsystem path — no ``arrivals``/``load`` record keys, no
   congestion hooks bound, byte-identical records across runs (the
   golden-digest suites pin the bytes against history; this file pins
   the mechanism).
3. **Oracle horizon**: open-loop runs get an absolute recovery horizon
   (detection/ack scale), not a multiple of the unbounded open-loop
   makespan which would make ``bounded-recovery`` a degenerate pass.
"""

from __future__ import annotations

import pytest

from repro.api import Experiment, RunSpec, execute
from repro.check import CheckConfig, evaluate
from repro.check.oracles import resolve_horizon
from repro.config import CostModel
from repro.load import OVERFLOW_POLICIES
from repro.report.aggregate import numeric_fields
from repro.util.jsonio import canonical_dumps

_LOAD_SUMMARY_KEYS = {
    "arrivals", "completed", "horizon", "sojourn_p50", "sojourn_p95",
    "sojourn_p99", "sojourn_mean", "goodput", "queue_depth_mean",
    "queue_depth_max", "dropped", "backpressure_events",
}


def _openloop_spec(arrivals: str, policy: str = "rollback", seed: int = 5) -> RunSpec:
    return (
        Experiment.workload("balanced:3:2:10")
        .policy(policy)
        .processors(4)
        .seed(seed)
        .arrivals(arrivals)
        .build()
    )


class TestArrivalProcessesRun:
    @pytest.mark.parametrize(
        "arrivals",
        [
            "poisson:rate=0.015,horizon=1000,tasks=6",
            "bursty:rate=0.06,on=150,off=250,horizon=1000,tasks=6",
            "diurnal:peak=0.03,horizon=1000,tasks=6",
        ],
    )
    def test_completes_and_verifies(self, arrivals):
        handle = execute(_openloop_spec(arrivals))
        assert handle.completed
        assert handle.verified is True
        load = handle.record["load"]
        assert set(load) == _LOAD_SUMMARY_KEYS
        assert load["arrivals"] == load["completed"] > 0
        assert handle.record["arrivals"] == arrivals

    def test_zero_arrival_stream_completes_with_value_zero(self):
        # An open-loop run whose sampled schedule happens to be empty
        # must still terminate cleanly (the host completes immediately).
        handle = execute(_openloop_spec("poisson:rate=0.0001,horizon=10"))
        assert handle.completed and handle.verified is True
        assert handle.record["load"]["arrivals"] == 0
        assert handle.record["value"] == "0"

    def test_same_seed_rerun_is_byte_identical(self):
        spec = _openloop_spec("poisson:rate=0.02,horizon=800,tasks=6,cap=4,overflow=drop")
        a = execute(spec).record
        b = execute(spec).record
        assert canonical_dumps(a) == canonical_dumps(b)

    def test_load_summary_flows_into_report_fields(self):
        handle = execute(_openloop_spec("poisson:rate=0.015,horizon=1000,tasks=6"))
        fields = numeric_fields(handle.record)
        assert "load.sojourn_p95" in fields
        assert "load.goodput" in fields


class TestOverflowPolicies:
    _CONGESTED = "poisson:rate=0.03,horizon=1000,tasks=8,cap=4,overflow={}"

    @pytest.mark.parametrize("overflow", OVERFLOW_POLICIES)
    def test_congested_run_still_verifies(self, overflow):
        handle = execute(_openloop_spec(self._CONGESTED.format(overflow)))
        assert handle.completed
        assert handle.verified is True
        load = handle.record["load"]
        assert load["completed"] == load["arrivals"]

    def test_drop_and_tail_shed_backpressure_defers(self):
        by_policy = {
            overflow: execute(_openloop_spec(self._CONGESTED.format(overflow))).record["load"]
            for overflow in OVERFLOW_POLICIES
        }
        assert by_policy["drop"]["dropped"] > 0
        assert by_policy["tail"]["dropped"] > 0
        assert by_policy["backpressure"]["dropped"] == 0
        assert by_policy["backpressure"]["backpressure_events"] > 0
        assert by_policy["drop"]["backpressure_events"] == 0

    def test_uncapped_run_binds_no_congestion(self):
        handle = execute(_openloop_spec("poisson:rate=0.015,horizon=600"))
        assert handle.record["load"]["dropped"] == 0
        assert handle.record["load"]["backpressure_events"] == 0


class TestClosedLoopFastPath:
    def test_record_has_no_load_keys(self):
        spec = Experiment.workload("balanced:3:2:10").policy("rollback").seed(0).build()
        record = execute(spec).record
        assert "arrivals" not in record
        assert "load" not in record
        assert record["metrics"].get("load_arrivals", 0) == 0

    def test_runspec_json_omits_arrivals_when_empty(self):
        spec = Experiment.workload("balanced:3:2:10").policy("rollback").seed(0).build()
        assert "arrivals" not in spec.to_json()
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_runspec_json_roundtrips_arrivals(self):
        spec = _openloop_spec("bursty:rate=0.06,on=150,off=250,horizon=1000,cap=3,overflow=tail")
        doc = spec.to_json()
        assert doc["arrivals"] == spec.arrivals.to_spec_str()
        assert RunSpec.from_json(doc) == spec

    def test_machine_hooks_stay_unbound(self):
        from repro.config import SimConfig
        from repro.sim.machine import Machine
        from repro.api import WorkloadSpec

        wfactory, _ = WorkloadSpec.parse("balanced:2:2:5").build()
        machine = Machine(SimConfig(n_processors=4, seed=0), wfactory())
        assert machine.load is None
        assert all(node.congestion is None for node in machine.nodes.values())


class TestOpenLoopCheckHorizon:
    def test_explicit_horizon_time_wins(self):
        config = CheckConfig(horizon_frac=3.0, horizon_time=777.0)
        assert resolve_horizon(config, base_makespan=10_000.0) == 777.0
        assert resolve_horizon(config, base_makespan=10_000.0, open_loop=True) == 777.0

    def test_open_loop_default_is_detection_scale_not_makespan(self):
        cost = CostModel()
        scale = cost.ack_timeout + cost.detection_timeout + cost.detector_delay
        config = CheckConfig(horizon_frac=3.0)
        assert resolve_horizon(config, base_makespan=50_000.0, open_loop=True) == 3.0 * scale
        assert resolve_horizon(config, base_makespan=50_000.0) == 150_000.0

    def test_config_json_omits_horizon_time_when_unset(self):
        assert "horizon_time" not in CheckConfig().to_json()
        assert CheckConfig(horizon_time=500.0).to_json()["horizon_time"] == 500.0

    def test_oracles_judge_openloop_run_at_absolute_horizon(self):
        spec = _openloop_spec(
            "poisson:rate=0.03,horizon=1000,tasks=8,cap=4,overflow=drop"
        )
        handle = execute(spec, collect_trace=True)
        report = evaluate(handle, CheckConfig())
        cost = CostModel()
        scale = cost.ack_timeout + cost.detection_timeout + cost.detector_delay
        assert report.horizon == 3.0 * scale
        # Not the makespan-derived bound the closed-loop path would use.
        assert report.horizon != 3.0 * max(handle.makespan, 1.0)
        assert report.ok
