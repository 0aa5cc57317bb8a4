"""The chaos scenarios: registration, oracle checks, and byte determinism."""

from __future__ import annotations

import pytest

from repro.exp import all_scenarios, expand, get_scenario, run_scenario

CHAOS = ("chaos-partition", "chaos-grayfail", "chaos-storm")


class TestRegistration:
    def test_chaos_scenarios_registered(self):
        scenarios = all_scenarios()
        for name in CHAOS:
            assert name in scenarios

    def test_every_chaos_scenario_grids_over_a_nemesis_axis(self):
        for name in CHAOS:
            spec = get_scenario(name)
            assert "nemesis" in spec.axes
            assert spec.runner == "machine"

    def test_points_carry_derived_or_pinned_seeds(self):
        for name in CHAOS:
            points = expand(get_scenario(name))
            assert all(isinstance(p.seed, int) for p in points)


class TestChaosRuns:
    @pytest.mark.parametrize("name", CHAOS)
    def test_all_points_verify_against_the_oracle(self, name):
        sweep = run_scenario(get_scenario(name), workers=1, cache_dir=None)
        for point in sweep.points:
            result = point["result"]
            assert result["completed"] is True, (name, point["index"])
            # verify ran on every point and agreed with the oracle (a
            # classified divergence would set verified=False and
            # oracle_mismatch=True — never pass silently).
            assert result["verified"] is True, (name, point["index"])
            assert result["metrics"]["oracle_mismatch"] is False

    def test_partition_points_record_blocked_messages(self):
        sweep = run_scenario(get_scenario("chaos-partition"), workers=1, cache_dir=None)
        for point in sweep.points:
            m = point["result"]["metrics"]
            assert m["nemesis_partition_blocked"] > 0
            assert m["recoveries_triggered"] > 0

    def test_storm_points_record_chaos_interference(self):
        sweep = run_scenario(get_scenario("chaos-storm"), workers=1, cache_dir=None)
        for point in sweep.points:
            m = point["result"]["metrics"]
            assert m["nemesis_dropped"] + m["nemesis_duplicated"] + m["nemesis_delayed"] > 0
            assert m["failures_injected"] == 1  # the scheduled crash

    def test_grayfail_control_point_is_clean(self):
        sweep = run_scenario(get_scenario("chaos-grayfail"), workers=1, cache_dir=None)
        by_axes = sweep.by_axes("policy", "nemesis")
        control = by_axes[("rollback", "")]
        assert control["metrics"]["nemesis_slowdown_time"] == 0
        slowed = by_axes[
            ("rollback", "grayfail:node=1,start=0.1,dur=0.6,factor=4+crash:at=0.4,node=2")
        ]
        assert slowed["metrics"]["nemesis_slowdown_time"] > 0
        assert slowed["makespan"] > control["makespan"]
        assert slowed["nemesis"].startswith("grayfail")


class TestDeterminism:
    @pytest.mark.parametrize("name", CHAOS)
    def test_same_seed_same_bytes(self, name):
        spec = get_scenario(name)
        a = run_scenario(spec, workers=1, cache_dir=None).to_json()
        b = run_scenario(spec, workers=1, cache_dir=None).to_json()
        assert a == b

    def test_parallel_matches_serial(self):
        spec = get_scenario("chaos-partition")
        serial = run_scenario(spec, workers=1, cache_dir=None).to_json()
        parallel = run_scenario(spec, workers=2, cache_dir=None).to_json()
        assert serial == parallel
