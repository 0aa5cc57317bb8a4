"""Programmatic experiment API: the Experiment builder and Session runner.

This module turns a :class:`~repro.api.specs.RunSpec` into results.  It
is the single execution path behind ``repro run``, the scenario
registry's ``machine`` point runner, and user code:

>>> from repro.api import Experiment
>>> handle = (
...     Experiment.workload("balanced:2:2:5")
...     .policy("splice")
...     .processors(2)
...     .seed(7)
...     .run()
... )
>>> handle.result.completed
True

The record a run produces (:attr:`RunHandle.record`) is byte-for-byte
the dict the scenario sweep engine caches, so programmatic runs, CLI
runs, and registry sweeps can never drift apart.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.api.specs import (
    ArrivalSpec,
    FaultSpec,
    MachineSpec,
    NemesisSpec,
    PolicySpec,
    RunSpec,
    WorkloadSpec,
)
from repro.config import SimConfig
from repro.errors import SpecError
from repro.sim.machine import RunResult, run_simulation

SpecLike = Union[RunSpec, "Experiment", str, Mapping[str, Any]]


# -- result shaping (ported verbatim from the historical point runner) ---------


def metrics_dict(result: RunResult) -> Dict[str, Any]:
    """Flatten a run's metrics into the canonical JSON sub-dict."""
    m = result.metrics
    return {
        "tasks_spawned": m.tasks_spawned,
        "tasks_accepted": m.tasks_accepted,
        "tasks_completed": m.tasks_completed,
        "tasks_aborted": m.tasks_aborted,
        "tasks_reissued": m.tasks_reissued,
        "twins_created": m.twins_created,
        "steps_total": m.steps_total,
        "steps_wasted": m.steps_wasted,
        "steps_salvaged": m.steps_salvaged,
        "checkpoints_recorded": m.checkpoints_recorded,
        "checkpoints_dropped": m.checkpoints_dropped,
        "checkpoint_peak_held": m.checkpoint_peak_held,
        "results_delivered": m.results_delivered,
        "results_duplicate": m.results_duplicate,
        "results_ignored": m.results_ignored,
        "results_orphan_rerouted": m.results_orphan_rerouted,
        "results_salvaged": m.results_salvaged,
        "failures_injected": m.failures_injected,
        "failures_detected": m.failures_detected,
        "nodes_failed": list(m.nodes_failed),
        "delivery_failures": m.delivery_failures,
        "recoveries_triggered": m.recoveries_triggered,
        "oracle_mismatch": m.oracle_mismatch,
        "nemesis_dropped": m.nemesis_dropped,
        "nemesis_duplicated": m.nemesis_duplicated,
        "nemesis_delayed": m.nemesis_delayed,
        "nemesis_partition_blocked": m.nemesis_partition_blocked,
        "nemesis_slowdown_time": round(m.nemesis_slowdown_time, 6),
        "messages_total": m.messages_total,
    }


def _util_stats(result: RunResult) -> Tuple[Optional[float], Optional[float]]:
    # Survivors are whoever actually stayed alive — metrics.nodes_failed
    # covers crashes from the fault schedule and from nemesis models alike.
    dead = set(result.metrics.nodes_failed)
    util = result.metrics.utilization(result.makespan)
    procs = [u for nid, u in util.items() if nid >= 0]
    survivors = [u for nid, u in util.items() if nid >= 0 and nid not in dead]
    mean = round(sum(procs) / len(procs), 6) if procs else None
    spread = round(statistics.pstdev(survivors), 6) if len(survivors) > 1 else None
    return mean, spread


@lru_cache(maxsize=None)
def _baseline(workload: str, policy: str, config: SimConfig) -> Tuple[float, int, int]:
    """Fault-free baseline ``(makespan, tasks_accepted, messages_total)``.

    Many runs of one sweep share the same baseline (e.g. every fault
    fraction of one policy); memoizing per process restores the old
    drivers' run-it-once cost without giving up point purity — the memo
    is a pure function of its key, so parallel and serial runs still
    agree byte-for-byte.
    """
    wfactory, _ = WorkloadSpec.parse(workload).build()
    result = run_simulation(
        wfactory(), config, policy=PolicySpec.parse(policy).build(), collect_trace=False
    )
    if not result.completed:
        raise RuntimeError(f"baseline run stalled: {result.stall_reason}")
    return result.makespan, result.metrics.tasks_accepted, result.metrics.messages_total


# -- handles -------------------------------------------------------------------


@dataclass
class RunHandle:
    """One executed run: the resolved spec, the live result, the record.

    ``record`` is the flat JSON dict the sweep cache stores — identical
    for identical specs no matter which entry point ran them.
    """

    spec: RunSpec
    result: RunResult
    record: Dict[str, Any]
    baseline: Optional[Tuple[float, int, int]] = None
    #: Oracle verdicts (:class:`repro.check.CheckReport`), filled in by
    #: sessions constructed with an ``oracles`` config.
    check: Optional[Any] = None

    @property
    def metrics(self):
        return self.result.metrics

    @property
    def makespan(self) -> float:
        return self.result.makespan

    @property
    def completed(self) -> bool:
        return self.result.completed

    @property
    def verified(self) -> Optional[bool]:
        return self.result.verified

    @property
    def value(self) -> Any:
        return self.result.value

    def to_json(self) -> str:
        """Canonical JSON rendering of the record."""
        from repro.util.jsonio import canonical_dumps

        return canonical_dumps(self.record)

    def summary(self) -> str:
        return self.result.summary()


# -- execution -----------------------------------------------------------------


def execute(
    spec: RunSpec, collect_trace: bool = False, verify: bool = True
) -> RunHandle:
    """Run one RunSpec and return its handle.

    The record layout, rounding, and baseline placement replicate the
    historical ``machine`` point runner exactly — the byte-parity tests
    in ``tests/exp/test_runspec_parity.py`` pin this.
    """
    wfactory, tree_size = spec.workload.build()
    config = spec.config()
    policy_str = spec.policy.to_spec_str()

    base: Optional[Tuple[float, int, int]] = None
    frac_faults = spec.faults.mode == "frac" and bool(spec.faults.entries)
    need_base = (
        frac_faults or bool(spec.nemesis) or spec.speedup_base_processors is not None
    )
    if need_base:
        base_policy = (spec.base_policy or spec.policy).to_spec_str()
        base_cfg = config
        if spec.speedup_base_processors is not None:
            base_cfg = config.with_(n_processors=spec.speedup_base_processors)
        base = _baseline(spec.workload.to_spec_str(), base_policy, base_cfg)

    base_makespan = base[0] if base else None
    faults = spec.faults.schedule(base_makespan)
    nemesis = spec.nemesis.build(base_makespan) if spec.nemesis else None
    load = spec.arrivals.build() if spec.arrivals else None
    result = run_simulation(
        wfactory(), config, policy=spec.policy.build(),
        faults=faults, collect_trace=collect_trace, verify=verify, nemesis=nemesis,
        load=load,
    )

    util_mean, util_spread = _util_stats(result)
    fault_times = [round(t, 6) for t, _ in spec.faults.crashes(base_makespan)]
    out: Dict[str, Any] = {
        "workload": spec.workload.to_spec_str(),
        "policy": policy_str,
        "processors": config.n_processors,
        "seed": config.seed,
        "completed": result.completed,
        "verified": result.verified,
        "correct": result.correct,
        "value": repr(result.value),
        "makespan": result.makespan,
        "fault_times": fault_times,
        "utilization_mean": util_mean,
        "utilization_stddev_survivors": util_spread,
        "metrics": metrics_dict(result),
    }
    if spec.nemesis:
        out["nemesis"] = spec.nemesis.to_spec_str()
    if spec.arrivals:
        out["arrivals"] = spec.arrivals.to_spec_str()
        out["load"] = result.load.to_json()
    if tree_size is not None:
        out["tree_size"] = tree_size
    if base is not None:
        base_makespan, base_accepted, base_messages = base
        out["fault_free"] = {
            "makespan": base_makespan,
            "tasks_accepted": base_accepted,
            "messages_total": base_messages,
        }
        if spec.faults.entries:
            out["slowdown"] = round(result.makespan / base_makespan, 6)
        if spec.speedup_base_processors is not None:
            out["speedup"] = round(base_makespan / result.makespan, 6)
    return RunHandle(spec=spec, result=result, record=out, baseline=base)


# -- the fluent builder --------------------------------------------------------


class _chainable:
    """Method descriptor usable straight off the class.

    ``Experiment.workload("fib-10")`` auto-instantiates a fresh builder,
    so fluent chains read the way the docs write them; on an instance it
    behaves like a normal method.
    """

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner):
        return partial(self.fn, obj if obj is not None else owner())


class Experiment:
    """Fluent builder for a :class:`RunSpec`.

    Every setter returns the builder, :meth:`build` freezes the spec,
    and :meth:`run` executes it through a :class:`Session`:

    >>> spec = (
    ...     Experiment.workload("prog:tak:7:4:2")
    ...     .policy("splice")
    ...     .nemesis("partition:start=0.3,dur=0.25,group=0-1")
    ...     .processors(8)
    ...     .seed(7)
    ...     .build()
    ... )
    >>> spec.machine.processors
    8
    """

    def __init__(self) -> None:
        self._workload: Optional[WorkloadSpec] = None
        self._policy = PolicySpec("rollback")
        self._machine = MachineSpec()
        self._seed = 0
        self._faults: Tuple[Tuple[float, int], ...] = ()
        self._fault_mode = "frac"
        self._nemesis = NemesisSpec()
        self._arrivals = ArrivalSpec()
        self._base_policy: Optional[PolicySpec] = None
        self._speedup_base: Optional[int] = None

    @_chainable
    def workload(self, spec: Union[str, WorkloadSpec]) -> "Experiment":
        """Set the workload (spec string or WorkloadSpec)."""
        self._workload = spec if isinstance(spec, WorkloadSpec) else WorkloadSpec.parse(spec)
        return self

    @_chainable
    def policy(self, spec: Union[str, PolicySpec]) -> "Experiment":
        """Set the recovery policy (spec string or PolicySpec)."""
        self._policy = spec if isinstance(spec, PolicySpec) else PolicySpec.parse(spec)
        return self

    @_chainable
    def faults(self, spec: Union[str, FaultSpec], mode: str = "frac") -> "Experiment":
        """Replace the fault schedule (``T:NODE+T:NODE`` string or FaultSpec)."""
        parsed = spec if isinstance(spec, FaultSpec) else FaultSpec.parse(spec, mode=mode)
        self._faults = parsed.entries
        self._fault_mode = parsed.mode
        return self

    @_chainable
    def fault(self, when: float, node: int, mode: str = "frac") -> "Experiment":
        """Append one fault (``when`` is a fraction of the baseline
        makespan unless ``mode="time"``)."""
        if self._faults and mode != self._fault_mode:
            raise SpecError(
                "cannot mix fraction-mode and time-mode faults in one run",
                field="faults.mode", value=mode, allowed=(self._fault_mode,),
            )
        self._fault_mode = mode
        self._faults += ((float(when), int(node)),)
        return self

    @_chainable
    def nemesis(self, spec: Union[str, NemesisSpec]) -> "Experiment":
        """Set the nemesis composition (spec string or NemesisSpec)."""
        self._nemesis = spec if isinstance(spec, NemesisSpec) else NemesisSpec.parse(spec)
        return self

    @_chainable
    def arrivals(self, spec: Union[str, ArrivalSpec]) -> "Experiment":
        """Set the open-loop arrival process (spec string or ArrivalSpec)."""
        self._arrivals = spec if isinstance(spec, ArrivalSpec) else ArrivalSpec.parse(spec)
        return self

    @_chainable
    def machine(self, spec: Union[str, MachineSpec]) -> "Experiment":
        """Set the whole machine shape (spec string or MachineSpec)."""
        self._machine = spec if isinstance(spec, MachineSpec) else MachineSpec.parse(spec)
        return self

    @_chainable
    def processors(self, n: int) -> "Experiment":
        """Set the processor count."""
        self._machine = replace(self._machine, processors=int(n))
        return self

    @_chainable
    def topology(self, name: str) -> "Experiment":
        """Set the interconnection topology."""
        self._machine = replace(self._machine, topology=str(name))
        return self

    @_chainable
    def scheduler(self, name: str) -> "Experiment":
        """Set the load-balancing scheduler."""
        self._machine = replace(self._machine, scheduler=str(name))
        return self

    @_chainable
    def replication(self, k: int) -> "Experiment":
        """Set the machine replication factor (``replicated`` policy k)."""
        self._machine = replace(self._machine, replication=int(k))
        return self

    @_chainable
    def cost(self, **overrides: float) -> "Experiment":
        """Override cost-model fields, e.g. ``.cost(detector_delay=400.0)``."""
        merged = dict(self._machine.cost)
        merged.update(overrides)
        probe = MachineSpec.from_params({"cost": merged})  # validates field names
        self._machine = replace(self._machine, cost=probe.cost)
        return self

    @_chainable
    def seed(self, seed: int) -> "Experiment":
        """Set the root seed for all stochastic streams."""
        self._seed = int(seed)
        return self

    @_chainable
    def base_policy(self, spec: Union[str, PolicySpec]) -> "Experiment":
        """Anchor fraction-mode fault placement on another policy's baseline."""
        self._base_policy = spec if isinstance(spec, PolicySpec) else PolicySpec.parse(spec)
        return self

    @_chainable
    def speedup_base(self, processors: int) -> "Experiment":
        """Also run fault-free at this processor count and report speedup."""
        self._speedup_base = int(processors)
        return self

    @_chainable
    def build(self) -> RunSpec:
        """Freeze the builder into a validated RunSpec."""
        if self._workload is None:
            raise SpecError("an Experiment needs a workload", field="workload")
        return RunSpec(
            workload=self._workload,
            policy=self._policy,
            machine=self._machine,
            seed=self._seed,
            faults=FaultSpec(self._faults, self._fault_mode),
            nemesis=self._nemesis,
            base_policy=self._base_policy,
            speedup_base_processors=self._speedup_base,
            arrivals=self._arrivals,
        ).validate()

    @_chainable
    def run(self, session: Optional["Session"] = None) -> RunHandle:
        """Build and execute, returning the RunHandle."""
        return (session or Session()).run(self.build())


class Session:
    """Runs one or many RunSpecs and keeps their handles.

    ``collect_trace``/``verify`` apply to every run the session
    executes.  Fault-free baselines are memoized process-wide, so a
    session sweeping many fault fractions of one workload pays the
    baseline run once, exactly like the registry sweep engine.
    """

    def __init__(
        self,
        collect_trace: bool = False,
        verify: bool = True,
        oracles: Optional[Any] = None,
    ) -> None:
        """``oracles`` opts every run into trace-oracle evaluation.

        Pass ``True`` for the default :class:`repro.check.CheckConfig`
        or a config instance to tune it; each handle then carries a
        :class:`repro.check.CheckReport` in :attr:`RunHandle.check`.
        Oracle evaluation needs the trace, so ``collect_trace`` is
        forced on.
        """
        if oracles is True:
            from repro.check import CheckConfig

            oracles = CheckConfig()
        self.oracles = oracles
        self.collect_trace = collect_trace or oracles is not None
        self.verify = verify
        self.handles: List[RunHandle] = []

    @staticmethod
    def resolve(spec: SpecLike) -> RunSpec:
        """Coerce any accepted spec form into a validated RunSpec.

        Every entry point validates before running, so a bad spec fails
        with the same structured diagnostic whether it arrives as a
        document, a params dict, a builder, or the CLI flags.
        """
        if isinstance(spec, RunSpec):
            return spec.validate()
        if isinstance(spec, Experiment):
            return spec.build()  # build() validates
        if isinstance(spec, str):
            return Experiment().workload(spec).build()
        if isinstance(spec, Mapping):
            # A schema tag marks the canonical JSON document form; a bare
            # mapping is treated as scenario-grid params.
            if "schema" in spec:
                return RunSpec.from_json(spec).validate()
            return RunSpec.from_params(spec).validate()
        raise SpecError(
            f"cannot resolve {type(spec).__name__} into a RunSpec",
            field="spec", value=spec,
        )

    def run(self, spec: SpecLike) -> RunHandle:
        """Execute one spec and return its handle."""
        handle = execute(
            self.resolve(spec), collect_trace=self.collect_trace, verify=self.verify
        )
        if self.oracles is not None:
            from repro.check import evaluate  # deferred: check imports this module

            handle.check = evaluate(handle, self.oracles)
        self.handles.append(handle)
        return handle
