"""Canonical, round-trippable arrival-process specs.

An :class:`ArrivalSpec` describes an *open-loop* traffic regime: instead
of one closed task tree, the simulated machine receives a stream of
independent task trees injected at the super-root over a configured
horizon.  The grammar is one clause of :mod:`repro.load.grammar` over the
:data:`PROCESSES` tables below: ``parse`` / ``to_spec_str`` round-trip
byte-exactly, parameters render in declaration order and only when
given, and every failure is a structured
:class:`~repro.errors.SpecError`.

Grammar (an empty string means "closed-loop, no arrivals")::

    process:key=value,key=value,...

    poisson:rate=0.01,horizon=1500
    bursty:rate=0.05,on=200,off=400,horizon=2000,tasks=10
    diurnal:peak=0.02,horizon=3000,cap=6,overflow=backpressure

Processes
---------
``poisson``
    Memoryless arrivals at mean rate ``rate`` (arrivals per sim-time
    unit) over ``[0, horizon)``.
``bursty``
    Markov-modulated on/off: exponential bursts of mean length ``on``
    (Poisson arrivals at ``rate`` inside a burst) separated by
    exponential idle gaps of mean length ``off``.
``diurnal``
    A triangular ramp: the instantaneous rate rises linearly from 0 to
    ``peak`` at mid-horizon and back to 0 (thinning of a ``peak``-rate
    Poisson stream).

Common parameters: ``tasks`` (mean sampled tree size; each arrival's
tree size is uniform in ``[max(1, tasks//2), tasks + tasks//2]``),
``cap`` (finite per-node inbox capacity, 0 = unbounded) and
``overflow`` (what a full inbox does: ``drop`` = drop-with-notify,
``tail`` = silent tail drop recovered by ack timers, ``backpressure``
= deliver but defer the sender's next slice).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.load.grammar import Param, parse_clause, render_clause, resolve
from repro.errors import SpecError

#: Overflow policies for finite inboxes, in documentation order.
OVERFLOW_POLICIES: Tuple[str, ...] = ("drop", "tail", "backpressure")

#: Soft budget on the *expected* number of arrivals implied by a spec;
#: validation rejects specs beyond it so a typo'd rate cannot schedule
#: an effectively unbounded simulation.
MAX_EXPECTED_ARRIVALS = 5000.0


def _common_params() -> Dict[str, Param]:
    return {
        "tasks": Param(
            "int", 8, "mean tree size; sizes are uniform in [max(1, tasks//2), tasks + tasks//2]"
        ),
        "cap": Param("int", 0, "per-node inbox capacity (0 = unbounded)"),
        "overflow": Param(
            "choice",
            "drop",
            "full-inbox policy: drop (drop-with-notify), tail (silent), backpressure",
            choices=OVERFLOW_POLICIES,
        ),
    }


#: Parameter tables per process, in canonical (declaration) order.
PROCESSES: Dict[str, Dict[str, Param]] = {
    "poisson": {
        "rate": Param("float", None, "mean arrival rate (arrivals per time unit)"),
        "horizon": Param("float", None, "arrival window [0, horizon)"),
        **_common_params(),
    },
    "bursty": {
        "rate": Param("float", None, "arrival rate inside a burst"),
        "on": Param("float", None, "mean burst length (time units)"),
        "off": Param("float", None, "mean idle gap between bursts"),
        "horizon": Param("float", None, "arrival window [0, horizon)"),
        **_common_params(),
    },
    "diurnal": {
        "peak": Param("float", None, "peak arrival rate at mid-horizon"),
        "horizon": Param("float", None, "arrival window [0, horizon)"),
        **_common_params(),
    },
}

#: Registered arrival-process names, in documentation order.
ARRIVAL_PROCESSES: Tuple[str, ...] = tuple(PROCESSES)


@dataclass(frozen=True)
class ArrivalSpec:
    """One arrival process with its explicitly-given parameters.

    ``params`` holds only the parameters the user supplied, as
    ``(name, value)`` pairs in canonical declaration order — exactly the
    ``NemesisClause`` convention, so ``parse(s).to_spec_str()`` is a
    normal form and defaults can evolve without re-serializing old
    specs.  The empty spec (``process == ""``) is falsy and means
    "closed loop": no arrivals, no congestion, byte-identical behavior
    to a run that predates this subsystem.

    Examples
    --------
    >>> spec = ArrivalSpec.parse("poisson:horizon=1500,rate=0.01")
    >>> spec.to_spec_str()
    'poisson:rate=0.01,horizon=1500'
    >>> ArrivalSpec.parse(spec.to_spec_str()) == spec
    True
    >>> bool(ArrivalSpec.parse(""))
    False
    """

    process: str = ""
    params: Tuple[Tuple[str, Any], ...] = ()

    def __bool__(self) -> bool:
        return self.process != ""

    @classmethod
    def parse(cls, text: str) -> "ArrivalSpec":
        text = (text or "").strip()
        if not text:
            return cls()
        return cls(*parse_clause(text, PROCESSES, family="arrivals", noun="arrival process"))

    def to_spec_str(self) -> str:
        return render_clause(self.process, self.params) if self.process else ""

    # -- semantics -------------------------------------------------------

    def resolved(self) -> Dict[str, Any]:
        """Effective parameters: declared defaults overlaid by the given
        values, in declaration order.  Empty dict for the empty spec."""
        return resolve(PROCESSES[self.process], self.params) if self.process else {}

    def expected_arrivals(self) -> float:
        """Mean number of arrivals the spec implies (0 for the empty spec)."""
        if not self.process:
            return 0.0
        p = self.resolved()
        if self.process == "poisson":
            return p["rate"] * p["horizon"]
        if self.process == "bursty":
            duty = p["on"] / (p["on"] + p["off"]) if p["on"] + p["off"] > 0 else 1.0
            return p["rate"] * p["horizon"] * duty
        # diurnal: triangular ramp integrates to peak * horizon / 2
        return p["peak"] * p["horizon"] / 2.0

    def validate(self) -> None:
        """Raise :class:`SpecError` unless the spec is semantically sound."""
        if not self.process:
            return
        spec_str = self.to_spec_str()
        p = self.resolved()
        checks = (
            ("rate", lambda v: v > 0, "must be > 0"),
            ("peak", lambda v: v > 0, "must be > 0"),
            ("horizon", lambda v: v > 0, "must be > 0"),
            ("on", lambda v: v > 0, "must be > 0"),
            ("off", lambda v: v >= 0, "must be >= 0"),
            ("tasks", lambda v: v >= 1, "must be >= 1"),
            ("cap", lambda v: v >= 0, "must be >= 0"),
        )
        for key, ok, why in checks:
            if key in p and not ok(p[key]):
                raise SpecError(
                    f"arrival parameter {self.process}.{key} {why}, got {p[key]}",
                    spec=spec_str,
                    field=f"arrivals.{self.process}.{key}",
                    value=p[key],
                )
        expected = self.expected_arrivals()
        if expected > MAX_EXPECTED_ARRIVALS:
            raise SpecError(
                f"arrival spec implies ~{expected:.0f} expected arrivals "
                f"(budget {MAX_EXPECTED_ARRIVALS:.0f}); lower rate or horizon",
                spec=spec_str,
                field=f"arrivals.{self.process}",
                value=expected,
            )

    def build(self):
        """Build the :class:`~repro.load.generator.LoadGenerator` for this
        spec (validating first).  The empty spec builds nothing."""
        if not self.process:
            return None
        self.validate()
        from repro.load.generator import LoadGenerator

        return LoadGenerator(self)
