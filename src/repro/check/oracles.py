"""Trace oracles: named invariants over one run's event stream.

Each oracle consumes a :class:`CheckContext` — the run's
:class:`~repro.sim.trace.TraceRecord` stream plus the final outcome —
and returns a :class:`Verdict`: ``pass``, ``weak`` (a documented
degraded regime, not a correctness failure), or ``violation``, with the
violating trace window attached so a reproducer points straight at the
offending interval.

The catalog (see ``docs/CHECK.md`` and ``repro check list``):

``result-agreement``
    The run terminates with the sequential oracle's value.
``no-orphan-commit``
    Nothing lands in a task instance after it aborted — rollback may
    discard work, never resurrect it.
``checkpoint-coverage``
    Per-stamp checkpoint coverage is monotone: a drop is always matched
    by an earlier record, so held-checkpoint counts never go negative.
``causal-delivery``
    Every received result was previously sent, relayed, or rerouted —
    partitions and chaos may delay or kill messages, never invent them.
``bounded-recovery``
    Every triggered recovery (``recovery_reissue``) closes — a result
    arrives, the holder aborts, or a later reissue supersedes it —
    within a configurable horizon.
``weak-recovery``
    Classifies false-positive failure detections: none (pass),
    symmetric write-off (weak — the partition-heal regime documented in
    ``docs/FAULTS.md``), one-sided write-off survived (weak), or
    one-sided write-off that stranded the run (violation — the
    Fabbretti et al. weak-recovery regime).

Oracles are pure functions of the context, so synthetic traces unit-test
them without running the machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.errors import SpecError
from repro.load.grammar import FLOAT, coerce
from repro.sim.trace import Trace, TraceRecord

#: Verdict statuses, from best to worst.
STATUSES = ("pass", "weak", "violation")

#: Trace kinds that legitimately originate a result in flight.  A
#: ``result_received`` with no prior origin for the same stamp is
#: acausal (splice relays and orphan reroutes do not re-emit
#: ``result_sent``, hence the three kinds).
RESULT_ORIGINS = ("result_sent", "result_relayed", "result_orphan_rerouted")


@dataclass(frozen=True)
class CheckConfig:
    """Tunables for one oracle evaluation.

    ``horizon_frac`` bounds recovery completion as a multiple of the
    fault-free baseline makespan (falling back to the run's own
    makespan when no baseline was computed).  ``horizon_time``, when
    set, is an absolute sim-time bound that overrides the fractional
    one — the right form for open-loop runs, whose makespan grows with
    the arrival horizon rather than with recovery latency.  Both must be
    finite and positive: every ``>`` against a NaN horizon is false, so
    ``bounded-recovery`` would pass vacuously.  ``oracles`` selects a
    subset by name; empty means the full catalog.
    """

    horizon_frac: float = 3.0
    horizon_time: Optional[float] = None
    oracles: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in ("horizon_frac", "horizon_time"):
            value = getattr(self, name)
            if value is not None and not (0 < value < math.inf):
                raise SpecError(
                    f"{name} must be a finite positive number, got {value!r}",
                    field="check.horizon", value=value,
                )

    def to_json(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "horizon_frac": self.horizon_frac,
            "oracles": list(self.oracles),
        }
        # Emitted only when set so pre-existing search-ledger and
        # report documents keep their byte-identical config blocks.
        if self.horizon_time is not None:
            doc["horizon_time"] = self.horizon_time
        return doc

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "CheckConfig":
        """Rebuild a config from its :meth:`to_json` document.

        Corpus replays and ledger consumers round-trip configs through
        this pair, so a search recorded under one horizon is always
        re-judged under the same one.  Horizons are typed by the spec
        kernel (a bool is not a number) and ``oracles`` must be a list of
        catalog names, so a hostile document fails here, before any run.
        """
        if not isinstance(payload, dict):
            raise SpecError(
                f"malformed CheckConfig document: {payload!r}",
                field="check.config", value=payload,
            )
        oracles = payload.get("oracles", [])
        if not (isinstance(oracles, list) and all(n in ORACLE_NAMES for n in oracles)):
            raise SpecError(
                f"check.oracles must be a list of oracle names, got {oracles!r}",
                field="check.oracles", value=oracles, allowed=ORACLE_NAMES,
            )
        frac, time = payload.get("horizon_frac", cls.horizon_frac), payload.get("horizon_time")
        return cls(  # out of range -> its own check.horizon error
            horizon_frac=coerce(FLOAT, frac, field="check.horizon"),
            horizon_time=None if time is None else coerce(FLOAT, time, field="check.horizon"),
            oracles=tuple(oracles),
        )


#: The kinds :attr:`CheckContext.recovery` folds.
RECOVERY_KINDS = (
    "recovery_reissue", "recovery_complete", "result_received",
    "result_salvaged", "task_aborted", "failure_detected",
)


@dataclass(frozen=True)
class Recovery:
    """One run's recovery, derived once per context (``ctx.recovery``):
    what ``bounded-recovery``, ``weak-recovery`` and the coverage
    signature all read, so they never disagree about a window."""

    reissues: int  # recovery_reissue records = windows opened
    max_overlap: int  # the most windows open at once
    #: ``(stamp, opened, closed)`` per window a result closed, in closing order.
    closed: Tuple[Tuple[Any, float, float], ...]
    #: ``(stamp, opened)`` per window still open at the end, in opening order.
    still_open: Tuple[Tuple[Any, float], ...]
    reasons: Tuple[str, ...]  # sorted set of reissue reasons
    #: ``failure_detected`` records whose target never crashed, their
    #: ``(accuser, accused)`` pairs, and the sorted one-sided pairs.
    false_positives: Tuple[TraceRecord, ...]
    pairs: FrozenSet[Tuple[int, int]]
    one_sided: Tuple[Tuple[int, int], ...]
    #: Worst window duration / horizon, open windows measured to the end
    #: of the run, rounded to 6 places; 0.0 when nothing was reissued.
    worst_ratio: float


@dataclass(frozen=True)
class CheckContext:
    """Everything an oracle may look at for one run.

    Oracles read records through ``ctx.trace.of_kind`` (one per-kind
    index per context, so each touches only the kinds it names) and key
    on the record fields ``stamp``/``uid``/``extra``, never on ``detail``;
    anything about recovery windows or detector mistakes comes from
    ``ctx.recovery``.
    """

    records: Tuple[TraceRecord, ...]
    completed: bool
    verified: Optional[bool]
    makespan: float
    horizon: float
    stall_reason: Optional[str] = None
    #: Nodes that really crashed.  ``None`` derives it from the trace's
    #: ``node_failed`` records (handy for synthetic test contexts).
    failed_nodes: Optional[Tuple[int, ...]] = None

    @property
    def correct(self) -> bool:
        return self.completed and self.verified is not False

    @cached_property
    def trace(self) -> Trace:
        return Trace(records=self.records)

    def dead_nodes(self) -> frozenset:
        if self.failed_nodes is not None:
            return frozenset(self.failed_nodes)
        return frozenset(
            r.extra.get("node", r.node) for r in self.trace.of_kind("node_failed")
        )

    @cached_property
    def recovery(self) -> Recovery:
        """One fold over :data:`RECOVERY_KINDS`.  A reissue opens a window
        for its stamp (a later one supersedes it in place), a result for
        the stamp closes it, a ``task_aborted`` moots every window its uid
        held and the aborted task's own, and a detection of a node that
        never crashed is a false positive."""
        dead = self.dead_nodes()
        open_at: Dict[Any, Tuple[float, Any]] = {}  # stamp -> (opened, holder uid)
        closed: List[Tuple[Any, float, float]] = []
        reasons: set = set()
        false_pos: List[TraceRecord] = []
        reissues = overlap = 0
        for r in self.trace.of_kind(*RECOVERY_KINDS):
            kind = r.kind
            if kind == "recovery_reissue":
                reissues += 1
                reasons.add(str(r.extra.get("reason")))
                open_at[r.stamp] = (r.time, r.uid)
                overlap = max(overlap, len(open_at))
            elif kind == "failure_detected":
                if r.extra.get("dead") not in dead:
                    false_pos.append(r)
            elif not open_at:
                continue
            elif kind == "task_aborted":
                for s in [s for s, (_, holder) in open_at.items() if holder == r.uid]:
                    del open_at[s]
                open_at.pop(r.stamp, None)
            elif r.stamp in open_at:
                closed.append((r.stamp, open_at.pop(r.stamp)[0], r.time))
        horizon = self.horizon if self.horizon > 0 else 1.0
        spans = [done - opened for _, opened, done in closed]
        spans += [self.makespan - opened for opened, _ in open_at.values()]
        pairs = frozenset((r.node, r.extra["dead"]) for r in false_pos)
        return Recovery(
            reissues=reissues, max_overlap=overlap, closed=tuple(closed),
            still_open=tuple((s, opened) for s, (opened, _) in open_at.items()),
            reasons=tuple(sorted(reasons)), false_positives=tuple(false_pos), pairs=pairs,
            one_sided=tuple(sorted(p for p in pairs if p[::-1] not in pairs)),
            worst_ratio=round(max([0.0] + [span / horizon for span in spans]), 6),
        )


@dataclass(frozen=True)
class Verdict:
    """One oracle's judgement of one run."""

    oracle: str
    status: str  # one of STATUSES
    detail: str
    #: ``(first, last)`` trace times bounding the offending interval
    #: (``None`` for clean passes).
    window: Optional[Tuple[float, float]] = None

    def __post_init__(self) -> None:
        assert self.status in STATUSES, self.status

    @property
    def ok(self) -> bool:
        return self.status != "violation"

    def to_json(self) -> Dict[str, Any]:
        return {
            "oracle": self.oracle,
            "status": self.status,
            "detail": self.detail,
            "window": list(self.window) if self.window else None,
        }


@dataclass(frozen=True)
class OracleInfo:
    """Registry entry: name, one-line summary, the checking function."""

    name: str
    summary: str
    fn: Callable[[CheckContext], Verdict]


_ORACLES: Dict[str, OracleInfo] = {}


def oracle(name: str, summary: str):
    """Register an oracle function under ``name`` (decorator)."""

    def wrap(fn: Callable[[CheckContext], Verdict]) -> Callable[[CheckContext], Verdict]:
        if name in _ORACLES:
            raise ValueError(f"oracle {name!r} already registered")
        _ORACLES[name] = OracleInfo(name, summary, fn)
        return fn

    return wrap


def all_oracles() -> Dict[str, OracleInfo]:
    """The oracle catalog, in registration (= documentation) order."""
    return dict(_ORACLES)


# -- the catalog ---------------------------------------------------------------


@oracle("result-agreement", "run terminates with the sequential oracle's value")
def _result_agreement(ctx: CheckContext) -> Verdict:
    name = "result-agreement"
    if not ctx.completed:
        last = ctx.records[-1].time if ctx.records else 0.0
        reason = f" ({ctx.stall_reason})" if ctx.stall_reason else ""
        return Verdict(
            name, "violation",
            f"run stalled before the root received its result{reason}",
            window=(last, ctx.makespan),
        )
    if ctx.verified is False:
        return Verdict(
            name, "violation",
            "final value disagrees with the sequential oracle",
            window=(0.0, ctx.makespan),
        )
    if ctx.verified is None:
        return Verdict(name, "pass", "run completed (verification disabled)")
    return Verdict(name, "pass", "final value matches the sequential oracle")


@oracle("no-orphan-commit", "nothing lands in a task instance after it aborted")
def _no_orphan_commit(ctx: CheckContext) -> Verdict:
    name = "no-orphan-commit"
    aborted: Dict[int, float] = {}
    for r in ctx.trace.of_kind("task_aborted", "result_received", "task_completed"):
        uid = r.uid
        if r.kind == "task_aborted":
            if uid is not None:
                aborted.setdefault(uid, r.time)
        elif uid in aborted:
            return Verdict(
                name, "violation",
                f"{r.kind} for task uid={uid} after its abort at "
                f"t={aborted[uid]:g} — rollback resurrected discarded work",
                window=(aborted[uid], r.time),
            )
    return Verdict(
        name, "pass",
        f"{len(aborted)} aborted instance(s), none received or completed afterwards",
    )


@oracle("checkpoint-coverage", "per-stamp checkpoint coverage never goes negative")
def _checkpoint_coverage(ctx: CheckContext) -> Verdict:
    name = "checkpoint-coverage"
    held: Dict[Any, int] = {}
    recorded = dropped = 0
    for r in ctx.trace.of_kind("checkpoint_recorded", "checkpoint_dropped"):
        stamp = r.stamp
        if r.kind == "checkpoint_recorded":
            held[stamp] = held.get(stamp, 0) + 1
            recorded += 1
        else:
            if held.get(stamp, 0) <= 0:
                return Verdict(
                    name, "violation",
                    f"checkpoint for stamp {stamp} dropped at t={r.time:g} "
                    "with no matching record — coverage went negative",
                    window=(r.time, r.time),
                )
            held[stamp] -= 1
            dropped += 1
    return Verdict(
        name, "pass",
        f"{recorded} recorded / {dropped} dropped, coverage monotone per stamp",
    )


@oracle("causal-delivery", "every received result was previously sent, relayed, or rerouted")
def _causal_delivery(ctx: CheckContext) -> Verdict:
    name = "causal-delivery"
    origins: set = set()
    received = 0
    for r in ctx.trace.of_kind("result_received", *RESULT_ORIGINS):
        if r.kind != "result_received":
            origins.add(r.stamp)
        elif r.stamp not in origins:
            return Verdict(
                name, "violation",
                f"result for stamp {r.stamp} delivered at t={r.time:g} "
                "with no prior send/relay/reroute — acausal delivery",
                window=(r.time, r.time),
            )
        else:
            received += 1
    return Verdict(name, "pass", f"{received} deliveries, all causally preceded")


@oracle("bounded-recovery", "every triggered recovery closes within the horizon")
def _bounded_recovery(ctx: CheckContext) -> Verdict:
    name = "bounded-recovery"
    recovery = ctx.recovery
    horizon = ctx.horizon
    for stamp, opened, done in recovery.closed:
        if done - opened > horizon:
            return Verdict(
                name, "violation",
                f"recovery of stamp {stamp} took {done - opened:g} "
                f"(> horizon {horizon:g})",
                window=(opened, done),
            )
    still_open = recovery.still_open
    if still_open:
        stamp, opened = min(still_open, key=lambda kv: kv[1])
        if not ctx.completed:
            return Verdict(
                name, "violation",
                f"{len(still_open)} recovery reissue(s) never completed and the "
                f"run stalled (earliest open: stamp {stamp} at t={opened:g})",
                window=(opened, ctx.makespan),
            )
        if ctx.makespan - opened > horizon:
            return Verdict(
                name, "violation",
                f"recovery of stamp {stamp} opened at t={opened:g} never "
                f"completed within horizon {horizon:g}",
                window=(opened, ctx.makespan),
            )
    return Verdict(
        name, "pass",
        f"{recovery.reissues} recovery reissue(s), all closed within horizon {horizon:g}",
    )


@oracle("weak-recovery", "classifies false-positive failure detections")
def _weak_recovery(ctx: CheckContext) -> Verdict:
    name = "weak-recovery"
    recovery = ctx.recovery
    false_pos, onesided = recovery.false_positives, recovery.one_sided
    if not false_pos:
        return Verdict(
            name, "pass",
            "every failure detection was a real crash"
            if ctx.trace.count("failure_detected")
            else "no failure detections",
        )
    first = min(r.time for r in false_pos)
    last = max(r.time for r in false_pos)
    if not onesided:
        return Verdict(
            name, "weak",
            f"{len(recovery.pairs)} symmetric false-positive write-off(s) — the "
            "partition-heal regime; both sides re-execute, determinacy "
            "absorbs the duplicates",
            window=(first, last),
        )
    shown = ", ".join(f"{a}->{b}" for a, b in onesided[:4])
    if ctx.correct:
        return Verdict(
            name, "weak",
            f"one-sided false-positive write-off(s) {shown} survived — "
            "reissue covered the stranded side",
            window=(first, last),
        )
    return Verdict(
        name, "violation",
        f"one-sided false-positive write-off(s) {shown} stranded the run "
        "— the weak-recovery regime (see docs/FAULTS.md)",
        window=(first, ctx.makespan),
    )


#: Catalog order, pinned by tests and docs.
ORACLE_NAMES = tuple(_ORACLES)


# -- evaluation ----------------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    """All verdicts for one run, plus the horizon they were judged at."""

    verdicts: Tuple[Verdict, ...]
    horizon: float

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def violations(self) -> Tuple[Verdict, ...]:
        return tuple(v for v in self.verdicts if v.status == "violation")

    @property
    def weak(self) -> Tuple[Verdict, ...]:
        return tuple(v for v in self.verdicts if v.status == "weak")

    @property
    def status(self) -> str:
        """Worst verdict status: ``violation`` > ``weak`` > ``pass``."""
        return max(
            (v.status for v in self.verdicts),
            key=STATUSES.index,
            default="pass",
        )

    def verdict(self, oracle_name: str) -> Verdict:
        for v in self.verdicts:
            if v.oracle == oracle_name:
                return v
        raise KeyError(oracle_name)

    def to_json(self) -> Dict[str, Any]:
        return {
            "horizon": round(self.horizon, 6),
            "status": self.status,
            "verdicts": [v.to_json() for v in self.verdicts],
        }

    def table(self) -> str:
        width = max(len(v.oracle) for v in self.verdicts)
        lines = []
        for v in self.verdicts:
            window = (
                f"  [t={v.window[0]:g}..{v.window[1]:g}]" if v.window else ""
            )
            lines.append(f"{v.oracle:<{width}}  {v.status:<9} {v.detail}{window}")
        return "\n".join(lines)


def select_oracles(names: Tuple[str, ...]) -> List[OracleInfo]:
    """Resolve a name subset (empty = all), with SpecError diagnostics."""
    if not names:
        return list(_ORACLES.values())
    out = []
    for name in names:
        if name not in _ORACLES:
            raise SpecError(
                f"unknown oracle {name!r}",
                field="check.oracle", value=name, allowed=ORACLE_NAMES,
            )
        out.append(_ORACLES[name])
    return out


def evaluate_context(
    ctx: CheckContext, config: Optional[CheckConfig] = None
) -> CheckReport:
    """Run the (selected) catalog over a prepared context."""
    config = config or CheckConfig()
    infos = select_oracles(config.oracles)
    return CheckReport(
        verdicts=tuple(info.fn(ctx) for info in infos), horizon=ctx.horizon
    )


def resolve_horizon(
    config: CheckConfig, base_makespan: float, open_loop: bool = False
) -> float:
    """The absolute recovery horizon one evaluation is judged against.

    Precedence: an explicit ``horizon_time`` always wins.  Closed-loop
    runs scale the fault-free baseline makespan by ``horizon_frac``.
    Open-loop runs have no finite baseline — their makespan is the
    arrival horizon, which would make any fractional bound a degenerate
    pass — so recovery is bounded on the detection/ack scale of the
    cost model instead (scaled by the same ``horizon_frac``).
    """
    if config.horizon_time is not None:
        return config.horizon_time
    if open_loop:
        from repro.config import CostModel

        cost = CostModel()
        scale = cost.ack_timeout + cost.detection_timeout + cost.detector_delay
        return config.horizon_frac * scale
    return config.horizon_frac * max(base_makespan, 1.0)


def build_context(handle: Any, config: Optional[CheckConfig] = None) -> CheckContext:
    """Freeze an executed :class:`repro.api.RunHandle` into a context.

    One context serves both oracle evaluation (:func:`evaluate`) and
    coverage-signature extraction
    (:func:`repro.check.coverage.signature_from_context`), so the two
    always judge the same records at the same horizon.
    """
    config = config or CheckConfig()
    result = handle.result
    if not result.trace.enabled and result.metrics.tasks_spawned:
        raise SpecError(
            "oracle evaluation needs a collected trace; "
            "execute with collect_trace=True (or Session(oracles=...))",
            field="check.trace",
        )
    horizon = resolve_horizon(
        config,
        base_makespan=handle.baseline[0] if handle.baseline else result.makespan,
        open_loop=bool(getattr(handle.spec, "arrivals", None)),
    )
    return CheckContext(
        records=tuple(result.trace),
        completed=result.completed,
        verified=result.verified,
        makespan=result.makespan,
        horizon=horizon,
        stall_reason=result.stall_reason,
        failed_nodes=tuple(result.metrics.nodes_failed),
    )


def evaluate(handle: Any, config: Optional[CheckConfig] = None) -> CheckReport:
    """Evaluate oracles over an executed :class:`repro.api.RunHandle`."""
    config = config or CheckConfig()
    return evaluate_context(build_context(handle, config), config)


def check_spec(spec: Any, config: Optional[CheckConfig] = None) -> Tuple[Any, CheckReport]:
    """Execute any spec form with tracing on and evaluate the oracles."""
    from repro.api.session import Session, execute

    handle = execute(Session.resolve(spec), collect_trace=True)
    return handle, evaluate(handle, config)
