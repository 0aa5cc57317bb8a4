"""Sequential reference interpreter.

This evaluator defines the language's semantics and serves as the
*determinacy oracle*: every distributed simulation run (with or without
injected faults) must produce exactly the value this interpreter produces.
The test suite asserts that equivalence, which is the executable form of
the paper's correctness criterion (§4.3).

The interpreter also meters *reduction steps* using the same accounting the
distributed task evaluator uses, so fault-free makespans are comparable
across the two.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from repro.errors import ArityError, EvalError, RecursionBudgetError, TypeMismatchError
from repro.lang.astnodes import And, App, Expr, If, Lambda, Let, Lit, Local, Or, Quote, Var
from repro.lang.compileprog import Program
from repro.lang.env import EMPTY_ENV, Env
from repro.lang.prims import Primitive, lookup_primitive, primitive_cost
from repro.lang.values import Closure, GlobalFunction, is_callable_value, show


@dataclass
class EvalStats:
    """Metering collected during sequential evaluation.

    ``steps``   — reduction steps (each node visit = 1, primitives add
                  their dynamic cost);
    ``spawns``  — applications of global functions via ``App`` (the ones a
                  distributed evaluator turns into child tasks);
    ``locals``  — global-function applications forced inline via ``local``;
    ``max_task_depth`` — depth of the implicit call tree (root task = 0).
    """

    steps: int = 0
    spawns: int = 0
    locals: int = 0
    max_task_depth: int = 0
    step_budget: Optional[int] = None

    def charge(self, n: int = 1) -> None:
        self.steps += n
        if self.step_budget is not None and self.steps > self.step_budget:
            raise RecursionBudgetError(
                f"evaluation exceeded step budget of {self.step_budget}"
            )


class _Interp:
    def __init__(self, program: Program, stats: EvalStats):
        self.program = program
        self.stats = stats
        self.task_depth = 0

    # -- value resolution ---------------------------------------------------

    def resolve(self, name: str, env: Env) -> Any:
        if name in env:
            return env.lookup(name)
        fdef = self.program.defs.get(name)
        if fdef is not None:
            return GlobalFunction(fdef.name, fdef.arity)
        prim = lookup_primitive(name)
        if prim is not None:
            return prim
        # Raise through Env for a uniform error message.
        return env.lookup(name)

    # -- evaluation ---------------------------------------------------------

    def eval(self, expr: Expr, env: Env) -> Any:
        self.stats.charge()
        if isinstance(expr, Lit):
            return expr.value
        if isinstance(expr, Quote):
            return expr.datum
        if isinstance(expr, Var):
            return self.resolve(expr.name, env)
        if isinstance(expr, Lambda):
            return Closure(expr.params, expr.body, env)
        if isinstance(expr, If):
            cond = self.eval(expr.cond, env)
            return self.eval(expr.then if cond is not False else expr.orelse, env)
        if isinstance(expr, Let):
            values = tuple(self.eval(b, env) for b in expr.bindings)
            return self.eval(expr.body, env.extend(expr.names, values))
        if isinstance(expr, And):
            value: Any = True
            for op in expr.operands:
                value = self.eval(op, env)
                if value is False:
                    return False
            return value
        if isinstance(expr, Or):
            for op in expr.operands:
                value = self.eval(op, env)
                if value is not False:
                    return value
            return False
        if isinstance(expr, (App, Local)):
            fn = self.eval(expr.fn, env)
            args = tuple(self.eval(a, env) for a in expr.args)
            return self.apply(fn, args, spawning=isinstance(expr, App))
        raise TypeError(f"unknown expression node: {expr!r}")

    def apply(self, fn: Any, args: Tuple[Any, ...], spawning: bool) -> Any:
        if isinstance(fn, Primitive):
            self.stats.charge(primitive_cost(fn, args))
            return fn.apply(args)
        if isinstance(fn, Closure):
            if len(args) != len(fn.params):
                raise ArityError(fn.name, len(fn.params), len(args))
            return self.eval(fn.body, fn.env.extend(fn.params, args))
        if isinstance(fn, GlobalFunction):
            fdef = self.program.defs[fn.name]
            if len(args) != fdef.arity:
                raise ArityError(fn.name, fdef.arity, len(args))
            if spawning:
                self.stats.spawns += 1
                self.task_depth += 1
                self.stats.max_task_depth = max(self.stats.max_task_depth, self.task_depth)
            else:
                self.stats.locals += 1
            try:
                # Definition bodies close over the *global* scope only.
                result = self.eval(fdef.body, EMPTY_ENV.extend(fdef.params, args))
            finally:
                if spawning:
                    self.task_depth -= 1
            return result
        if is_callable_value(fn):  # pragma: no cover - defensive
            raise EvalError(f"cannot apply {fn!r}")
        raise TypeMismatchError(f"not a function: {show(fn)}")


def evaluate(
    program: Program,
    expr: Optional[Expr] = None,
    stats: Optional[EvalStats] = None,
) -> Any:
    """Evaluate ``expr`` (default: the program's main) sequentially."""
    if expr is None:
        expr = program.main
    if expr is None:
        raise EvalError("program has no main expression")
    interp = _Interp(program, stats or EvalStats())
    # Deep recursion in user programs turns into deep Python recursion;
    # raise the limit generously for the evaluation only.
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 100_000))
    try:
        return interp.eval(expr, EMPTY_ENV)
    finally:
        sys.setrecursionlimit(old_limit)


def run_program(source: str, step_budget: Optional[int] = None) -> Any:
    """Compile and sequentially evaluate ``source``; convenience entry point."""
    from repro.lang.compileprog import compile_program

    program = compile_program(source)
    stats = EvalStats(step_budget=step_budget)
    return evaluate(program, stats=stats)
