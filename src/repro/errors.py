"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures without masking unrelated bugs.  The
sub-hierarchy mirrors the package layout: language errors, simulator errors,
and recovery-protocol errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SpecError(ReproError, ValueError):
    """Raised when an experiment spec string or document is malformed.

    Every spec grammar in the repo (workloads, policies, fault schedules,
    nemesis compositions, machine shapes, RunSpec JSON) reports failures
    through this one type so callers get a uniform, structured diagnostic
    instead of a raw ``ValueError``/``KeyError`` from deep inside a
    builder.  Subclasses ``ValueError`` so legacy ``except ValueError``
    call sites (and argparse type handlers) keep working.

    Structured fields (any may be ``None`` when unknown):

    ``spec``
        The full spec string (or a JSON summary) being parsed.
    ``field``
        Dotted name of the offending field, e.g. ``"chaos.drop"`` or
        ``"workload.kind"``.
    ``value``
        The offending token, verbatim.
    ``allowed``
        Tuple of accepted values/kinds for that field, when enumerable.
    ``position``
        0-based character offset of the offending token in ``spec``.
    """

    def __init__(
        self,
        message: str,
        *,
        spec: str | None = None,
        field: str | None = None,
        value: object = None,
        allowed: tuple | None = None,
        position: int | None = None,
    ):
        self.spec = spec
        self.field = field
        self.value = value
        self.allowed = tuple(allowed) if allowed is not None else None
        self.position = position
        parts = [message]
        if self.allowed is not None:
            parts.append(f"(allowed: {', '.join(str(a) for a in self.allowed)})")
        if position is not None and spec is not None:
            parts.append(f"at position {position} in {spec!r}")
        super().__init__(" ".join(parts))


# ---------------------------------------------------------------------------
# Language substrate
# ---------------------------------------------------------------------------


class LangError(ReproError):
    """Base class for errors in the applicative-language substrate."""


class ParseError(LangError):
    """Raised when s-expression source text cannot be parsed.

    Carries the 1-based ``line`` and ``column`` of the offending token when
    they are known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class EvalError(LangError):
    """Raised when evaluation of an applicative expression fails."""


class UnboundVariableError(EvalError):
    """Raised when a variable reference has no binding in scope."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable: {name!r}")


class ArityError(EvalError):
    """Raised when a function is applied to the wrong number of arguments."""

    def __init__(self, fn_name: str, expected: int, got: int):
        self.fn_name = fn_name
        self.expected = expected
        self.got = got
        super().__init__(f"{fn_name}: expected {expected} argument(s), got {got}")


class TypeMismatchError(EvalError):
    """Raised when a primitive receives an operand of the wrong type."""


class RecursionBudgetError(EvalError):
    """Raised when sequential evaluation exceeds its step budget."""


# ---------------------------------------------------------------------------
# Simulator substrate
# ---------------------------------------------------------------------------


class SimError(ReproError):
    """Base class for errors raised by the machine simulator."""


class TopologyError(SimError):
    """Raised for invalid topology construction or routing requests."""


class SchedulingError(SimError):
    """Raised when the load balancer cannot place a task packet."""


class ProtocolError(SimError):
    """Raised when a node receives a packet that violates the protocol.

    Per the paper's rule of thumb a node *ignores* unhandled packets during
    normal operation; this error marks genuine implementation bugs (e.g. a
    result for a task the node never spawned under a no-fault run).
    """


class SimulationBudgetError(SimError):
    """Raised when a run exceeds its configured event or time budget."""


# ---------------------------------------------------------------------------
# Recovery protocols
# ---------------------------------------------------------------------------


class RecoveryError(ReproError):
    """Base class for fault-tolerance protocol errors."""


class DeterminacyViolationError(RecoveryError):
    """Raised when two activations of one task packet disagree on the result.

    Determinacy (paper §2.1) guarantees identical answers from identical
    activations; a violation means the substrate leaked nondeterminism into
    task evaluation and recovery results cannot be trusted.
    """

    def __init__(self, stamp, first, second):
        self.stamp = stamp
        self.first = first
        self.second = second
        super().__init__(
            f"determinacy violation at stamp {stamp}: {first!r} != {second!r}"
        )
