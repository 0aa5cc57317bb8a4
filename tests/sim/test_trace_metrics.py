"""Tests for traces, metrics, and failure schedules."""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro
from repro.config import SimConfig
from repro.core import RollbackRecovery
from repro.sim import Fault, FaultSchedule, TreeWorkload
from repro.sim.machine import run_simulation
from repro.sim.metrics import Metrics
from repro.sim.trace import KINDS, Trace, TraceRecord
from repro.workloads.trees import balanced_tree


class TestTrace:
    def test_emit_and_query(self):
        trace = Trace()
        trace.emit(1.0, 0, "spawn", stamp="0")
        trace.emit(2.0, 1, "task_accepted", stamp="0")
        trace.emit(3.0, 1, "task_completed", stamp="0")
        assert len(trace) == 3
        assert trace.count("spawn") == 1
        assert trace.of_kind("task_accepted")[0].time == 2.0
        assert trace.of_kind("task_completed")[-1].node == 1
        assert len(trace.of_kind("spawn", "task_completed")) == 2

    def test_every_emit_site_names_a_literal_kind(self):
        """``emit`` no longer validates ``kind`` per event; the emit sites
        are checked here instead, statically and all of them."""
        root = pathlib.Path(repro.__file__).parent
        sites, bad = 0, []
        for path in sorted(root.rglob("*.py")):
            for call in ast.walk(ast.parse(path.read_text(), str(path))):
                if not (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "emit"
                ):
                    continue
                sites += 1
                kind = call.args[2] if len(call.args) > 2 else None
                if not (isinstance(kind, ast.Constant) and kind.value in KINDS):
                    bad.append(f"{path.relative_to(root)}:{call.lineno}")
        assert sites >= 35, "the walk no longer finds the simulator's emit sites"
        assert not bad, f"emit() with a kind that is not a literal member of KINDS: {bad}"

    def test_only_the_trace_module_reads_a_rendered_detail(self):
        """``detail`` is the printing view: every other reader in the
        package compares the record fields (``stamp``, ``uid``, ``extra``)."""
        root = pathlib.Path(repro.__file__).parent

        def is_detail(node):
            return (isinstance(node, ast.Attribute) and node.attr == "detail") or (
                isinstance(node, ast.Name) and node.id == "detail"
            )

        reads = []
        for path in sorted(root.rglob("*.py")):
            if path == root / "sim" / "trace.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                subscript = isinstance(node, ast.Subscript) and is_detail(node.value)
                get = (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get"
                    and is_detail(node.func.value)
                )
                if subscript or get:
                    reads.append(f"{path.relative_to(root)}:{node.lineno}")
        assert not reads, f"rendered detail read outside sim/trace.py: {reads}"

    def test_queries_see_records_emitted_after_a_query(self):
        trace = Trace()
        trace.emit(1.0, 0, "spawn", stamp="0")
        assert trace.count("spawn") == 1 and trace.of_kind("spawn")[-1].time == 1.0
        trace.emit(2.0, 1, "spawn", stamp="0.1")
        trace.emit(3.0, 1, "task_started", stamp="0.1")
        assert trace.count("spawn") == 2 and trace.of_kind("spawn")[-1].time == 2.0
        assert trace.of_kind("task_started")[0].time == 3.0
        assert trace.of_kind("task_aborted") == [] and trace.count("task_aborted") == 0
        assert [r.time for r in trace.of_kind("task_started", "spawn")] == [1.0, 2.0, 3.0]
        assert trace.of_kind() == []

    def test_disabled_trace_records_nothing(self):
        trace = Trace(enabled=False)
        trace.emit(1.0, 0, "spawn")
        assert len(trace) == 0

    def test_positions_and_render(self):
        trace = Trace()
        trace.emit(1.0, 0, "spawn", stamp="0.1")
        trace.emit(2.0, 2, "spawn", stamp="0.2")
        trace.emit(3.0, 2, "task_accepted", stamp="0.2")
        assert list(trace.positions("spawn")) == [0, 1] and trace.positions("node_failed") == ()
        text = trace.render(kinds=("spawn",), limit=1)
        assert "spawn" in text and "0.1" in text

    def test_machine_trace_disabled_for_benches(self):
        result = run_simulation(
            TreeWorkload(balanced_tree(3, 2, 10), "bal"),
            SimConfig(n_processors=3, seed=0),
            policy=RollbackRecovery(),
            collect_trace=False,
        )
        assert result.completed
        assert len(result.trace) == 0


class TestMetrics:
    def test_busy_and_utilization(self):
        m = Metrics()
        m.add_busy(0, 50.0)
        m.add_busy(0, 25.0)
        m.add_busy(1, 100.0)
        util = m.utilization(100.0)
        assert util[0] == pytest.approx(0.75)
        assert util[1] == pytest.approx(1.0)
        assert m.utilization(0.0) == {0: 0.0, 1: 0.0}

    def test_summary_rows_label_value_pairs(self):
        rows = Metrics().summary_rows()
        assert all(len(r) == 2 for r in rows)


class TestFaultSchedule:
    def test_single(self):
        schedule = FaultSchedule.single(10.0, 2)
        assert len(schedule) == 1
        assert schedule.nodes() == [2]

    def test_of_sorts_by_time(self):
        schedule = FaultSchedule.of(Fault(20.0, 1), Fault(5.0, 0))
        assert [f.time for f in schedule] == [5.0, 20.0]

    def test_none(self):
        assert len(FaultSchedule.none()) == 0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Fault(-1.0, 0)

    def test_super_root_not_failable(self):
        with pytest.raises(ValueError):
            Fault(1.0, -1)

    def test_duplicate_fault_ignored_at_injection(self):
        result = run_simulation(
            TreeWorkload(balanced_tree(3, 2, 20), "bal"),
            SimConfig(n_processors=4, seed=0),
            policy=RollbackRecovery(),
            faults=FaultSchedule.of(Fault(100.0, 1), Fault(150.0, 1)),
        )
        assert result.completed
        assert result.metrics.failures_injected == 1


class TestTraceRecordRendering:
    def test_str_contains_fields(self):
        record = TraceRecord(12.5, 3, "spawn", stamp="0.1")
        text = str(record)
        assert "12.5" in text and "spawn" in text and "0.1" in text
