"""Tests for the report aggregation layer."""

from __future__ import annotations

from collections import OrderedDict
from types import MappingProxyType

import pytest

from repro.exp import get_scenario, run_scenario, with_replications
from repro.report import aggregate_sweep
from repro.report.aggregate import (
    bootstrap_seed,
    display_metrics,
    flag_fields,
    numeric_fields,
)


@pytest.fixture(scope="module")
def smoke_r3():
    spec = with_replications(get_scenario("smoke"), 3)
    sweep = run_scenario(spec, workers=1)
    return aggregate_sweep(sweep, spec)


class TestFlattening:
    def test_numeric_fields_flatten_one_level(self):
        result = {
            "makespan": 10.0,
            "completed": True,
            "value": "'55'",
            "fault_times": [1.0, 2.0],
            "metrics": {"steps_wasted": 3, "verified": True},
            "fault_free": {"makespan": 8.0},
        }
        nums = numeric_fields(result)
        assert nums == {
            "makespan": 10.0,
            "metrics.steps_wasted": 3.0,
            "fault_free.makespan": 8.0,
        }

    def test_subclasses_flatten_like_their_bases(self):
        # a subclass of int or of a mapping flattens as its base does
        class Count(int):
            pass

        class Record(OrderedDict):
            pass

        result = {
            "tasks": Count(4),
            "ok": True,
            "workload": "fib-10",
            "metrics": Record(steps=Count(2), ratio=0.5, failed=False, nodes=[1]),
            "fault_free": MappingProxyType({"makespan": 8}),
        }
        assert numeric_fields(result) == {
            "tasks": 4.0,
            "metrics.steps": 2.0,
            "metrics.ratio": 0.5,
            "fault_free.makespan": 8.0,
        }

    def test_flag_fields_are_top_level_bools(self):
        assert flag_fields({"completed": True, "verified": False, "x": 1}) == {
            "completed": True,
            "verified": False,
        }


class TestAggregateSweep:
    def test_one_cell_per_grid_cell(self, smoke_r3):
        assert len(smoke_r3.cells) == 4
        assert smoke_r3.replications == 3
        for cell in smoke_r3.cells:
            assert cell.n == 3
            assert len(cell.seeds) == 3

    def test_cells_keep_sweep_order_and_axes(self, smoke_r3):
        labels = [dict(cell.axes) for cell in smoke_r3.cells]
        assert labels[0] == {"policy": "rollback", "fault_frac": 0.4}
        assert labels[-1] == {"policy": "splice", "fault_frac": 0.8}

    def test_summaries_cover_the_metrics_namespace(self, smoke_r3):
        cell = smoke_r3.cells[0]
        assert "makespan" in cell.metrics
        assert "metrics.steps_wasted" in cell.metrics
        summary = cell.metrics["makespan"]
        assert summary.n == 3
        assert summary.minimum <= summary.q1 <= summary.median
        assert summary.median <= summary.q3 <= summary.maximum
        assert summary.ci_low <= summary.median <= summary.ci_high

    def test_flags_counted(self, smoke_r3):
        cell = smoke_r3.cells[0]
        assert cell.flags["completed"] == 3
        assert cell.flags["verified"] == 3

    def test_samples_back_the_summaries(self, smoke_r3):
        cell = smoke_r3.cells[0]
        assert len(cell.samples["makespan"]) == 3

    def test_replications_read_from_the_sweep_when_spec_omitted(self):
        # a replicated sweep aggregated without its derived spec must
        # not report replications=1
        sweep = run_scenario(with_replications(get_scenario("smoke"), 2))
        agg = aggregate_sweep(sweep)
        assert agg.replications == 2
        assert all(cell.n == 2 for cell in agg.cells)

    def test_deterministic_rebuild(self):
        spec = with_replications(get_scenario("smoke"), 3)
        sweep = run_scenario(spec, workers=1)
        a = aggregate_sweep(sweep, spec)
        b = aggregate_sweep(sweep, spec)
        assert a.cells[0].metrics["makespan"] == b.cells[0].metrics["makespan"]

    def test_unreplicated_sweep_degenerates_honestly(self):
        sweep = run_scenario("smoke", workers=1)
        agg = aggregate_sweep(sweep)
        cell = agg.cells[0]
        s = cell.metrics["makespan"]
        assert cell.n == 1
        assert s.ci_low == s.median == s.ci_high == s.q1 == s.q3

    def test_cell_by_axes_lookup(self, smoke_r3):
        cell = smoke_r3.cell_by_axes(policy="splice", fault_frac=0.8)
        assert dict(cell.axes)["policy"] == "splice"
        with pytest.raises(KeyError, match="matches 2 cells"):
            smoke_r3.cell_by_axes(policy="splice")

    def test_figure_scenario_keeps_the_rendered_table(self):
        sweep = run_scenario("fig1-fragmentation", workers=1)
        agg = aggregate_sweep(sweep)
        (cell,) = agg.cells
        assert cell.text and "Fragments after processor B fails" in cell.text
        assert cell.flags["ok"] == 1


class TestDisplayMetrics:
    def test_makespan_first_then_columns(self, smoke_r3):
        cell = smoke_r3.cells[0]
        shown = display_metrics(smoke_r3, cell)
        assert shown[0] == "makespan"
        assert "metrics.steps_wasted" in shown  # column 'steps_wasted' resolved
        assert "slowdown" in shown


class TestBootstrapSeed:
    def test_stable_and_distinct(self):
        axes = (("policy", "rollback"),)
        assert bootstrap_seed("s", axes, "makespan") == bootstrap_seed(
            "s", axes, "makespan"
        )
        assert bootstrap_seed("s", axes, "makespan") != bootstrap_seed(
            "s", axes, "slowdown"
        )
        assert bootstrap_seed("s", axes, "makespan") != bootstrap_seed(
            "t", axes, "makespan"
        )
