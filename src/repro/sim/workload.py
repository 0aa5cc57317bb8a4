"""Workloads: what a machine run computes.

A workload supplies the root work spec, builds behaviors for task packets,
and knows its own fault-free answer (the determinacy oracle).

- :class:`InterpWorkload` runs a compiled applicative program;
- :class:`TreeWorkload` runs a synthetic call tree with controlled shape
  (the benchmark harness's tool for sweeping tree depth/fanout/grain).
"""

from __future__ import annotations

from typing import Any

from repro.core.packets import WorkSpec
from repro.lang.compileprog import Program
from repro.lang.interp import evaluate
from repro.sim.behavior import (
    InterpBehavior,
    TaskBehavior,
    TreeBehavior,
    TreeSpec,
)


class Workload:
    """Interface: behavior factory plus oracle."""

    name = "workload"

    def root_work(self) -> WorkSpec:
        raise NotImplementedError

    def make_behavior(self, work: WorkSpec) -> TaskBehavior:
        raise NotImplementedError

    def expected_value(self) -> Any:
        """The fault-free answer (raises if not computable)."""
        raise NotImplementedError


class InterpWorkload(Workload):
    """Evaluate a compiled applicative program on the machine."""

    def __init__(self, program: Program, name: str = "program"):
        if program.main is None:
            raise ValueError("InterpWorkload needs a program with a main expression")
        self.program = program
        self.name = name
        self._oracle: Any = _UNSET

    def root_work(self) -> WorkSpec:
        return WorkSpec(kind="main")

    def make_behavior(self, work: WorkSpec) -> TaskBehavior:
        return InterpBehavior.for_work(self.program, work)

    def expected_value(self) -> Any:
        if self._oracle is _UNSET:
            self._oracle = evaluate(self.program)
        return self._oracle


class TreeWorkload(Workload):
    """Execute a synthetic call tree."""

    def __init__(self, spec: TreeSpec, name: str = "tree"):
        self.spec = spec
        self.name = name
        self._oracle: Any = _UNSET

    def root_work(self) -> WorkSpec:
        return WorkSpec(kind="tree", tree_node=0)

    def make_behavior(self, work: WorkSpec) -> TaskBehavior:
        if work.kind != "tree":
            raise ValueError(f"TreeWorkload cannot execute work kind {work.kind!r}")
        return TreeBehavior(self.spec, work.tree_node)

    def expected_value(self) -> Any:
        if self._oracle is _UNSET:
            self._oracle = self.spec.expected_value()
        return self._oracle


class _Unset:
    pass


_UNSET = _Unset()
