"""Typed, serializable experiment specs (the ``repro.api`` data layer).

Every experiment in this repo is one shape: a *workload* evaluated under
a recovery *policy* on a configured *machine* while a fault schedule
and/or a *nemesis* injects failures.  This module gives that shape a
single canonical description — frozen dataclasses composed into a
:class:`RunSpec` — that the CLI, the scenario registry, the oracle
checker, and the programmatic API all consume and produce.

Each spec class supports three operations:

``parse(text)``
    Parse the string grammar into a typed spec, raising a structured
    :class:`~repro.errors.SpecError` (offending field, token, allowed
    values, position) on malformed input.
``to_spec_str()``
    Render the canonical string form.  Round-trip guarantee:
    ``parse(s.to_spec_str()) == s`` for every spec ``s``.
``build(...)``
    Resolve the spec into the live object the simulator consumes
    (workload factory, policy instance, ``SimConfig``, ``FaultSchedule``,
    ``NemesisSchedule``).

The ``name:key=value,...`` families (nemesis clauses, arrival processes,
the machine fields, the parameterised policies) are parameter tables
over :mod:`repro.load.grammar`; the positional grammars (workloads,
``T:NODE`` fault entries) split their lists with its ``pieces`` and take
their scalars and number rendering from it.  Only :class:`RunSpec` and the
:class:`MachineSpec` it embeds have a JSON form — the ``repro-runspec/1``
document carries every other component as its spec string.

String grammars:

- workload: suite name (``fib-10``), ``balanced:DEPTH:FANOUT:WORK``,
  ``chain:LEN:WORK``, ``wide:WIDTH:WORK``, ``skewed:DEPTH:FANOUT:WORK``,
  ``random:SEED:TASKS``, ``prog:NAME:ARG:...``
- policy: ``none`` | ``rollback`` | ``splice`` | ``reversible`` |
  ``incremental[:persist=volatile|durable|hybrid]`` | ``replicated[:K]``
- faults: ``T:NODE(+T:NODE)*`` where ``T`` is a fraction of the baseline
  makespan (``mode="frac"``) or an absolute sim time (``mode="time"``)
- nemesis: ``model:k=v,...(+model:k=v,...)*`` (see ``repro faults list``)
- machine: ``processors=8,topology=ring,scheduler=gradient,``
  ``replication=3,cost.NAME=V,...``
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import SCHEDULERS, TOPOLOGIES, CostModel, SimConfig
from repro.errors import SpecError
from repro.load.grammar import (
    FLOAT,
    INT,
    Param,
    Params,
    check_params,
    coerce,
    fmt_num,
    parse_clause,
    parse_params,
    pieces,
    render_clause,
    render_params,
    resolve,
)
from repro.load.spec import ArrivalSpec
from repro.policies.incremental import PERSIST_MODES

#: Schema tag carried by every RunSpec JSON document.
RUNSPEC_SCHEMA = "repro-runspec/1"


# -- workload ------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec:
    """What to evaluate: a named suite entry, a synthetic tree, or a program.

    ``kind`` is ``"named"`` (suite registry), a synthetic-tree kind
    (``balanced``/``chain``/``wide``/``skewed``/``random``), or
    ``"prog"`` (interpreter program).  ``name`` carries the suite or
    program name; ``args`` the integer shape/program arguments.
    """

    kind: str
    name: Optional[str] = None
    args: Tuple[int, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "WorkloadSpec":
        from repro.workloads.suite import WORKLOADS
        from repro.workloads.trees import SHAPES

        text = str(text)
        if text in WORKLOADS:
            return cls("named", name=text)
        kind, _, rest = text.partition(":")
        parts = list(pieces(rest, ":", len(kind) + 1)) if rest else []
        name = shape = None
        if kind == "prog":
            # a program's name is its first piece; a program takes all of
            # its integer arguments or none (its defaults)
            name = parts.pop(0)[0] if parts else ""
            if not name:
                raise SpecError(
                    "prog workload needs a program name (prog:NAME:ARG:...)",
                    spec=text, field="workload.prog", value=text, position=0,
                )
            from repro.lang.programs import PROGRAMS

            if name not in PROGRAMS:
                raise SpecError(
                    f"unknown program {name!r}",
                    spec=text, field="workload.prog", value=name,
                    allowed=tuple(sorted(PROGRAMS)), position=len("prog:"),
                )
            takes = PROGRAMS[name].spec_arity
            arities = (0, takes)
            arity = f"program {name!r} takes {takes} integer args (or none, for its defaults)"
            start = len("prog:") + len(name) + 1
        elif kind in SHAPES:
            shape = SHAPES[kind]
            lo, hi = shape.required, len(shape.args)
            arities = range(lo, hi + 1)
            want = f"{lo}" if lo == hi else f"{lo}..{hi}"
            arity = f"workload kind {kind!r} takes {want} integer args"
            start = len(kind) + 1
        else:
            raise SpecError(
                f"unknown workload spec {text!r}",
                spec=text, field="workload", value=text,
                allowed=tuple(sorted(WORKLOADS)) + tuple(SHAPES) + ("prog",),
                position=0,
            )
        # a tuple of a list, not of a generator: the generator's is
        # over-allocated and shrunk, which raised a sweep's peak RSS
        args = tuple([
            coerce(INT, part, field="workload.args", spec=text, position=at) for part, at in parts
        ])
        if len(args) not in arities:
            raise SpecError(
                f"{arity}, got {len(args)}",
                spec=text, field=f"workload.{kind}", value=text[start:], position=start,
            )
        refusal = shape.refusal(args) if shape else None
        if refusal is not None:
            index, why = refusal
            raise SpecError(
                f"workload kind {kind!r}: {why}",
                spec=text, field=f"workload.{kind}", value=parts[index][0],
                position=parts[index][1],
            )
        return cls(kind, name=name, args=args)

    def to_spec_str(self) -> str:
        if self.kind == "named":
            return self.name  # type: ignore[return-value]
        head = f"prog:{self.name}" if self.kind == "prog" else self.kind
        return ":".join([head] + [str(a) for a in self.args])

    def build(self) -> Tuple[Callable[[], Any], Optional[int]]:
        """Resolve to ``(workload_factory, tree_size)``.

        ``tree_size`` is the task count for synthetic trees (used by the
        checkpoint-memory scenario) and ``None`` otherwise.
        """
        from repro.sim.workload import InterpWorkload, TreeWorkload
        from repro.workloads import trees
        from repro.workloads.suite import WORKLOADS

        spec_str = self.to_spec_str()
        if self.kind == "named":
            return WORKLOADS[self.name], None
        if self.kind == "prog":
            from repro.lang.programs import get_program

            name, args = self.name, self.args
            return (
                lambda: InterpWorkload(get_program(name, *args), name=spec_str)
            ), None
        tree = trees.SHAPES[self.kind].build(*self.args)
        return (lambda: TreeWorkload(tree, spec_str)), len(tree)


# -- policy --------------------------------------------------------------------


#: The policy catalog: every policy name with its parameter table (empty
#: for the four that take none).  ``replicated`` keeps its positional
#: ``replicated:K`` spelling — the form every stored document and cache
#: key uses.
POLICY_PARAMS: Dict[str, Dict[str, Param]] = {
    "none": {},
    "rollback": {},
    "splice": {},
    "reversible": {},
    "incremental": {
        "persist": Param(
            "choice", PERSIST_MODES[0], "crash-persistency assumption", choices=PERSIST_MODES
        ),
    },
    "replicated": {
        "k": Param(
            "int", SimConfig.replication_factor,
            "replication factor (bare `replicated` follows the machine's)",
        ),
    },
}


@dataclass(frozen=True)
class PolicySpec:
    """Which recovery policy runs the workload.

    ``k`` and ``persist`` are the :data:`POLICY_PARAMS` of ``replicated``
    and ``incremental``; ``None`` means "not given" (the policy default).
    """

    name: str
    k: Optional[int] = None
    persist: Optional[str] = None

    #: The policies whose table is empty.
    _SIMPLE = tuple(name for name, table in POLICY_PARAMS.items() if not table)

    @classmethod
    def parse(cls, text: str) -> "PolicySpec":
        text = str(text)
        name, sep, arg = text.partition(":")
        if name == "replicated" and sep:
            k = coerce(
                POLICY_PARAMS[name]["k"], arg, field="policy.k", spec=text,
                position=len(name) + 1,
            )
            if k < 1:
                raise SpecError(
                    f"replication factor must be >= 1, got {k}",
                    spec=text, field="policy.k", value=arg, position=len(name) + 1,
                )
            return cls(name, k=k)
        if name in cls._SIMPLE:
            if sep:
                raise SpecError(
                    f"policy {name!r} takes no parameter",
                    spec=text, field="policy", value=text, position=len(name),
                )
            return cls(name)
        if name in POLICY_PARAMS:
            _, params = parse_clause(text, POLICY_PARAMS, family="policy", noun="policy")
            return cls(name, **dict(params))
        raise SpecError(
            f"unknown policy spec {text!r}",
            spec=text, field="policy", value=name,
            allowed=cls._SIMPLE + ("incremental[:persist=MODE]", "replicated:K"),
            position=0,
        )

    def to_spec_str(self) -> str:
        if self.k is not None:
            return f"{self.name}:{self.k}"
        if self.persist is not None:
            return render_clause(self.name, (("persist", self.persist),))
        return self.name

    def build(self):
        """Instantiate a fresh policy object.

        Bare ``replicated`` (no ``:K``) leaves k unset so the policy
        follows the machine's ``replication_factor`` — this is what
        makes ``Experiment.replication(k)`` govern the replicated
        policy as documented.
        """
        from repro.core import (
            NoFaultTolerance,
            ReplicatedExecution,
            RollbackRecovery,
            SpliceRecovery,
        )
        from repro.policies import IncrementalRecovery, ReversibleRecovery

        by_name = {
            policy.name: policy
            for policy in (
                NoFaultTolerance, RollbackRecovery, SpliceRecovery, ReversibleRecovery,
                IncrementalRecovery, ReplicatedExecution,
            )
        }
        given = {key: getattr(self, key) for key in POLICY_PARAMS[self.name]}
        return by_name[self.name](**{k: v for k, v in given.items() if v is not None})


# -- fault schedule ------------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """A fail-silent crash schedule: ``((when, node), ...)``.

    ``mode`` fixes the meaning of ``when``: ``"frac"`` — a fraction of
    the fault-free baseline makespan (the scenario-grid convention);
    ``"time"`` — an absolute sim time (the ``repro run --fault``
    convention).  The grammar is ``T:NODE+T:NODE``; both entry points
    (CLI and point runners) parse through here, so malformed input
    yields one structured diagnostic everywhere.
    """

    entries: Tuple[Tuple[float, int], ...] = ()
    mode: str = "frac"

    def __post_init__(self):
        # An empty schedule has no times to interpret; normalizing its
        # mode makes empty specs compare equal and round-trip exactly.
        if not self.entries and self.mode != "frac":
            object.__setattr__(self, "mode", "frac")

    @classmethod
    def parse(cls, text: str, mode: str = "frac") -> "FaultSpec":
        text = str(text)
        # A "time:"/"frac:" prefix makes the string form self-describing
        # (to_spec_str emits it for non-default modes); it overrides the
        # caller's default.
        for prefix in ("time", "frac"):
            if text.startswith(prefix + ":"):
                mode = prefix
                text = text[len(prefix) + 1:]
                break
        if mode not in ("frac", "time"):
            raise SpecError(
                f"unknown fault mode {mode!r}",
                field="faults.mode", value=mode, allowed=("frac", "time"),
            )
        if not text:
            return cls((), mode)
        entries: List[Tuple[float, int]] = []
        for item, at in pieces(text, "+"):
            when_str, sep, node_str = item.partition(":")
            if not sep or not when_str or not node_str:
                raise SpecError(
                    f"fault must be {'TIME' if mode == 'time' else 'FRAC'}:NODE "
                    f"(e.g. {'600:2' if mode == 'time' else '0.5:1'}), got {item!r}",
                    spec=text, field="faults", value=item, position=at,
                )
            when = coerce(FLOAT, when_str, field="faults.when", spec=text, position=at)
            node = coerce(
                INT, node_str, field="faults.node", spec=text, position=at + len(when_str) + 1
            )
            entries.append((when, node))
        return cls(tuple(entries), mode)

    def to_spec_str(self) -> str:
        body = "+".join(f"{fmt_num(when)}:{node}" for when, node in self.entries)
        return body if self.mode == "frac" else f"{self.mode}:{body}"

    def __bool__(self) -> bool:
        return bool(self.entries)

    def crashes(self, base_makespan: Optional[float] = None) -> Sequence[Tuple[float, int]]:
        """The ``(sim time, node)`` of every entry, in entry order.

        Fraction-mode entries are placed at ``max(1.0, frac * base)``
        exactly as the historical point runners did.
        """
        if self.mode == "time" or not self.entries:
            return self.entries
        if base_makespan is None:
            raise SpecError(
                "fraction-mode fault schedule needs a baseline makespan",
                field="faults.mode", value=self.mode,
            )
        return [(max(1.0, when * base_makespan), node) for when, node in self.entries]

    def schedule(self, base_makespan: Optional[float] = None):
        """Build the :class:`~repro.sim.failure.FaultSchedule` of :meth:`crashes`."""
        from repro.sim.failure import Fault, FaultSchedule

        if not self.entries:
            return FaultSchedule.none()
        crashes = self.crashes(base_makespan)
        try:
            return FaultSchedule.of(*(Fault(when, node) for when, node in crashes))
        except ValueError as exc:  # a negative time or node: Fault's own check
            raise SpecError(str(exc), spec=self.to_spec_str(), field="faults") from None


# -- nemesis -------------------------------------------------------------------


@dataclass(frozen=True)
class NemesisClause:
    """One fault-model clause: model name + the explicitly-given params.

    ``params`` keeps only what the spec named (defaults are left to the
    registry), ordered canonically by the model's parameter declaration
    order.  Values are typed: float, int, or a node tuple.
    """

    model: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def to_spec_str(self) -> str:
        return render_clause(self.model, self.params)


@dataclass(frozen=True)
class NemesisSpec:
    """A composition of fault models: ``model:k=v,...+model:k=v,...``.

    Parsing validates names, parameter names, value types, and required
    parameters against the fault-model registry but stores *unscaled*
    values; :meth:`build` applies the baseline-makespan scaling to
    fraction (``×T``) parameters and arms the models.
    """

    clauses: Tuple[NemesisClause, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "NemesisSpec":
        from repro.faults.registry import param_tables

        text = str(text).strip()
        if not text:
            return cls()
        tables = param_tables()
        return cls(tuple([
            NemesisClause(*parse_clause(
                clause, tables, family="nemesis", noun="fault model", spec=text, offset=at
            ))
            for clause, at in pieces(text, "+")
        ]))

    def to_spec_str(self) -> str:
        return "+".join(clause.to_spec_str() for clause in self.clauses)

    def __bool__(self) -> bool:
        return bool(self.clauses)

    def build(self, base_makespan: float = 1.0):
        """Arm the composition into a fresh ``NemesisSchedule``.

        ``base_makespan`` scales fraction-valued (``×T``) parameters, so
        specs stay workload-relative exactly like ``fault_frac``.
        """
        from repro.faults.model import NemesisSchedule
        from repro.faults.registry import get_model

        if not self.clauses:
            return NemesisSchedule.none()
        models = []
        for clause in self.clauses:
            info = get_model(clause.model)
            models.append(info.build(**{
                key: value * base_makespan if info.params[key].fraction else value
                for key, value in resolve(info.params, clause.params).items()
            }))
        return NemesisSchedule.of(*models)


# -- machine -------------------------------------------------------------------


#: The four shape fields, each with the :class:`~repro.config.SimConfig`
#: field it sets and takes its default from.
_MACHINE_KEYS = {
    "processors": "n_processors", "topology": "topology",
    "scheduler": "scheduler", "replication": "replication_factor",
}

#: The machine fields: the four shape fields, then one ``cost.NAME``
#: override per :class:`~repro.config.CostModel` field (by name, so
#: declaration order is the sorted order ``MachineSpec.cost`` keeps).
MACHINE_PARAMS: Dict[str, Param] = {
    **{
        key: Param(kind, getattr(SimConfig, _MACHINE_KEYS[key]), doc, choices=choices)
        for key, kind, doc, choices in (
            ("processors", "int", "number of (failable) processors", ()),
            ("topology", "choice", "interconnection topology", TOPOLOGIES),
            ("scheduler", "choice", "load-balancing scheduler", SCHEDULERS),
            ("replication", "int", "replicas per task packet (replicated policy)", ()),
        )
    },
    **{
        f"cost.{f.name}": Param("float", f.default, "CostModel override (sim-time units)")
        for f in sorted(dataclass_fields(CostModel), key=lambda f: f.name)
    },
}


@dataclass(frozen=True)
class MachineSpec:
    """The simulated multiprocessor: shape, routing, scheduling, costs.

    ``cost`` holds only explicit :class:`~repro.config.CostModel`
    overrides, as a sorted tuple of ``(field, value)`` pairs so the spec
    stays hashable and canonically ordered.
    """

    processors: int = MACHINE_PARAMS["processors"].default
    topology: str = MACHINE_PARAMS["topology"].default
    scheduler: str = MACHINE_PARAMS["scheduler"].default
    replication: int = MACHINE_PARAMS["replication"].default
    cost: Tuple[Tuple[str, float], ...] = ()

    @classmethod
    def _of(cls, params: Params) -> "MachineSpec":
        shape = {k: v for k, v in params if k in _MACHINE_KEYS}
        cost = tuple((k[len("cost."):], v) for k, v in params if k not in _MACHINE_KEYS)
        return cls(cost=cost, **shape)

    @classmethod
    def parse(cls, text: str) -> "MachineSpec":
        text = str(text).strip()
        return cls._of(parse_params(text, MACHINE_PARAMS, family="machine", spec=text))

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "MachineSpec":
        """The scenario-grid form: the machine keys of a wider parameter
        namespace (the run-level grid params share it)."""
        return cls.from_json({k: params[k] for k in (*_MACHINE_KEYS, "cost") if k in params})

    def to_spec_str(self) -> str:
        shape = [(key, getattr(self, key)) for key in _MACHINE_KEYS]
        return render_params(
            [(k, v) for k, v in shape if v != MACHINE_PARAMS[k].default]
            + [(f"cost.{name}", value) for name, value in self.cost]
        )

    def to_json(self) -> Dict[str, Any]:
        return {**{key: getattr(self, key) for key in _MACHINE_KEYS}, "cost": dict(self.cost)}

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "MachineSpec":
        """Load a machine document.  It owns its whole object, so a
        typo'd key, a non-integral count or an unknown topology is an
        error at load time, not a silent default."""
        cost = payload.get("cost", {})
        if not isinstance(cost, Mapping):
            raise SpecError(
                f"machine cost must be a mapping of field -> value, got {cost!r}",
                field="machine.cost", value=cost,
            )
        items = [(key, value, None, None) for key, value in payload.items() if key != "cost"]
        items += [(f"cost.{name}", value, None, None) for name, value in cost.items()]
        return cls._of(check_params(items, MACHINE_PARAMS, family="machine"))

    def to_config(self, seed: int) -> SimConfig:
        """Build the live ``SimConfig`` (the seed lives on the RunSpec)."""
        return SimConfig(
            seed=int(seed),
            cost=CostModel(**dict(self.cost)),
            **{name: getattr(self, key) for key, name in _MACHINE_KEYS.items()},
        )


# -- the composed run ----------------------------------------------------------

@dataclass(frozen=True)
class RunSpec:
    """One complete, canonical experiment description.

    A RunSpec is everything a run needs and nothing more: workload,
    policy, machine, seed, fault schedule, nemesis, plus the two
    baseline knobs (``base_policy`` anchors fraction-mode fault
    placement; ``speedup_base_processors`` requests a speedup
    comparison).  It is frozen, equality-comparable, and serializes to
    the canonical JSON document the sweep cache keys on.
    """

    workload: WorkloadSpec
    policy: PolicySpec = PolicySpec("rollback")
    machine: MachineSpec = field(default_factory=MachineSpec)
    seed: int = 0
    faults: FaultSpec = field(default_factory=FaultSpec)
    nemesis: NemesisSpec = field(default_factory=NemesisSpec)
    base_policy: Optional[PolicySpec] = None
    speedup_base_processors: Optional[int] = None
    #: Open-loop arrival process (see repro.load); the empty spec means a
    #: closed-loop run, serialized without an "arrivals" key so every
    #: pre-existing document and cache key stays byte-identical.
    arrivals: ArrivalSpec = field(default_factory=ArrivalSpec)

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "RunSpec":
        """Parse a scenario-grid parameter dict (the legacy point shape).

        This is the shim every string-keyed consumer funnels through:
        ``fault_frac``/``victim`` fold into the fault schedule, string
        grammars parse into their typed specs, and unknown keys are
        rejected with a structured diagnostic.
        """
        unknown = sorted(set(params) - _RUN_PARAM_KEYS)
        if unknown:
            raise SpecError(
                f"unknown run parameter(s) {unknown}",
                field="params", value=unknown, allowed=tuple(sorted(_RUN_PARAM_KEYS)),
            )
        for key in ("workload", "seed"):
            if key not in params:
                raise SpecError(f"run parameters need a {key!r}", field=key)
        faults = FaultSpec.parse(str(params.get("faults", "")), mode="frac")
        if params.get("fault_frac") is not None:
            if faults.entries and faults.mode != "frac":
                raise SpecError(
                    "cannot combine a time-mode 'faults' schedule with fault_frac",
                    field="faults.mode", value=faults.mode, allowed=("frac",),
                )
            entry = (
                coerce(FLOAT, params["fault_frac"], field="fault_frac"),
                coerce(INT, params.get("victim", 1), field="victim"),
            )
            faults = FaultSpec(faults.entries + (entry,), "frac")
        return cls._compose(params, MachineSpec.from_params(params), faults)

    @classmethod
    def _compose(cls, doc: Mapping[str, Any], machine: MachineSpec, faults: FaultSpec) -> "RunSpec":
        """The fields the grid-parameter and document forms spell alike;
        an absent ``policy`` or ``seed`` takes RunSpec's own default."""
        given = {"workload": WorkloadSpec.parse(str(doc["workload"]))}
        if "policy" in doc:
            given["policy"] = PolicySpec.parse(str(doc["policy"]))
        if "seed" in doc:
            given["seed"] = coerce(INT, doc["seed"], field="seed")
        base_policy = doc.get("base_policy")
        sbp = doc.get("speedup_base_processors")
        return cls(
            **given,
            machine=machine,
            faults=faults,
            nemesis=NemesisSpec.parse(str(doc.get("nemesis", "") or "")),
            base_policy=PolicySpec.parse(str(base_policy)) if base_policy else None,
            speedup_base_processors=(
                None if sbp is None else coerce(INT, sbp, field="speedup_base_processors")
            ),
            arrivals=ArrivalSpec.parse(str(doc.get("arrivals", "") or "")),
        )

    def to_json(self) -> Dict[str, Any]:
        """The canonical JSON document (round-trips via :meth:`from_json`)."""
        doc = {
            "schema": RUNSPEC_SCHEMA,
            "workload": self.workload.to_spec_str(),
            "policy": self.policy.to_spec_str(),
            "machine": self.machine.to_json(),
            "seed": self.seed,
            "faults": {"mode": self.faults.mode, "schedule": self.faults.to_spec_str()},
            "nemesis": self.nemesis.to_spec_str(),
            "base_policy": self.base_policy.to_spec_str() if self.base_policy else None,
            "speedup_base_processors": self.speedup_base_processors,
        }
        if self.arrivals:
            # Only open-loop specs carry the key: closed-loop documents —
            # and the sweep cache keys / run ids derived from them — stay
            # byte-identical to the pre-load era.
            doc["arrivals"] = self.arrivals.to_spec_str()
        return doc

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "RunSpec":
        doc_keys = (
            "schema", "workload", "policy", "machine", "seed", "faults",
            "nemesis", "arrivals", "base_policy", "speedup_base_processors",
        )
        try:
            schema = payload.get("schema")
            if schema != RUNSPEC_SCHEMA:
                raise SpecError(
                    f"unknown RunSpec schema {schema!r}",
                    field="schema", value=schema, allowed=(RUNSPEC_SCHEMA,),
                )
            unknown = sorted(set(payload) - set(doc_keys))
            if unknown:
                raise SpecError(
                    f"unknown RunSpec field(s) {unknown}",
                    field="json", value=unknown, allowed=doc_keys,
                )
            faults_doc = payload.get("faults", {})
            doc_mode = str(faults_doc.get("mode", "frac"))
            faults = FaultSpec.parse(str(faults_doc.get("schedule", "")), mode=doc_mode)
            if faults.entries and faults.mode != doc_mode:
                # the schedule string's "time:"/"frac:" prefix would
                # otherwise silently override the document's mode field
                raise SpecError(
                    f"faults mode {doc_mode!r} disagrees with the schedule's "
                    f"{faults.mode!r} prefix",
                    field="faults.mode", value=doc_mode, allowed=(faults.mode,),
                )
            machine = MachineSpec.from_json(payload.get("machine", {}))
            return cls._compose(payload, machine, faults)
        except SpecError:
            raise
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            # a hand-edited or truncated document: one structured error,
            # never a raw KeyError/AttributeError traceback
            raise SpecError(
                f"malformed RunSpec document: {exc!r}", field="json", value=exc,
            ) from None

    def canonical_json(self) -> str:
        """Canonical text rendering (sorted keys, two-space indent)."""
        from repro.util.jsonio import canonical_dumps

        return canonical_dumps(self.to_json())

    def config(self) -> SimConfig:
        """The live ``SimConfig`` for this run."""
        return self.machine.to_config(self.seed)

    def validate(self) -> "RunSpec":
        """Cross-field checks beyond per-spec grammar validation."""
        try:
            self.config().validate()
        except ValueError as exc:
            raise SpecError(str(exc), field="machine") from None
        for _, node in self.faults.entries:
            if not (0 <= node < self.machine.processors):
                raise SpecError(
                    f"fault targets unknown processor {node}",
                    field="faults.node", value=node,
                    allowed=tuple(range(self.machine.processors)),
                )
        if self.nemesis:
            # Instantiate against a unit baseline purely for model-level
            # validation (probability ranges, node membership).
            try:
                for model in self.nemesis.build(1.0):
                    model.validate(self.machine.processors)
            except ValueError as exc:
                raise SpecError(str(exc), field="nemesis") from None
        if self.speedup_base_processors is not None and self.speedup_base_processors < 1:
            raise SpecError(
                "speedup_base_processors must be >= 1",
                field="speedup_base_processors", value=self.speedup_base_processors,
            )
        if self.arrivals:
            self.arrivals.validate()
        return self


#: Parameter keys the ``machine`` point runner understands: the RunSpec
#: fields, with the machine spelled out as its fields, plus the one-fault
#: shorthand.  Anything else in a scenario grid is a typo and is rejected
#: with a SpecError.
_RUN_PARAM_KEYS = frozenset(
    {f.name for f in dataclass_fields(RunSpec) if f.name != "machine"}
    | {f.name for f in dataclass_fields(MachineSpec)}
    | {"fault_frac", "victim"}
)
