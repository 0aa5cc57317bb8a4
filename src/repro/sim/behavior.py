"""Task behaviors: what a task instance computes when the node runs it.

A behavior consumes delivered child results and produces an
:class:`Advance`: reduction steps performed, new child *demands*, and —
eventually — the task's value.  The node charges the steps as busy time,
turns demands into task packets (``DEMAND_IT`` of §4.2), and suspends the
task until results arrive.

Two implementations:

- :class:`InterpBehavior` evaluates an expression of the applicative
  language.  Applications of global functions become demands; everything
  else reduces locally.
- :class:`TreeBehavior` executes one node of a synthetic workload tree
  (fixed work, fixed children) — the controlled-shape workloads the
  benchmarks sweep.

**Stamp-stability invariant.**  The demand *digit* identifies the child
within its parent.  ``InterpBehavior`` uses the structural position (path)
of the application node in the unfolding evaluation tree, never a dynamic
spawn counter.  Because the language is determinate, the unfolded tree —
and hence every digit — is identical across re-activations of the packet,
no matter in which order results arrive.  Splice recovery depends on this:
a twin's demand for digit *d* must name exactly the orphan child whose
salvaged result is buffered under *d* (§4.1 cases 4–7).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ArityError, EvalError, TypeMismatchError
from repro.lang.astnodes import And, App, Expr, If, Lambda, Let, Lit, Local, Or, Quote, Var
from repro.lang.compileprog import Program
from repro.lang.env import EMPTY_ENV, Env
from repro.lang.prims import Primitive, lookup_primitive, primitive_cost
from repro.lang.values import Closure, GlobalFunction, show
from repro.core.packets import WorkSpec
from repro.core.stamps import Digit


@dataclass(frozen=True, slots=True)
class Demand:
    """A child-task demand: spawn ``work`` under stamp digit ``digit``."""

    digit: Digit
    work: WorkSpec


@dataclass(slots=True)
class Advance:
    """Result of running a task until it blocks, yields, or completes."""

    steps: int = 0
    demands: List[Demand] = field(default_factory=list)
    completed: bool = False
    value: Any = None
    #: True when the task voluntarily releases the CPU with work remaining
    #: (time-slicing); the node re-queues it at the back of the run queue.
    yielded: bool = False


class TaskBehavior:
    """Interface: drive the task's computation between suspensions.

    Subclasses are per-task-instance hot objects; they declare
    ``__slots__`` (and so must this base, or the slots buy nothing).
    """

    __slots__ = ()

    def advance(self, delivered: Dict[Digit, Any]) -> Advance:
        """Consume newly delivered child results, run until blocked.

        ``delivered`` maps stamp digits to values for demands issued
        earlier (or salvaged results that pre-empt a demand — the caller
        merges those in before the demand would be issued).
        """
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Language-interpreter behavior
# ---------------------------------------------------------------------------

_NEW = 0
_DONE = 2


class _EvalNode:
    """One node of the unfolding evaluation tree.

    ``path`` is the node's structural position (tuple of slot indices from
    the task's root expression); spawned applications use their path as
    the child-stamp digit.
    """

    __slots__ = ("expr", "env", "path", "state", "value", "slots", "demanded")

    def __init__(self, expr: Expr, env: Env, path: Tuple[int, ...]):
        self.expr = expr
        self.env = env
        self.path = path
        self.state = _NEW
        self.value: Any = None
        #: Children, keyed by fixed slot index.
        self.slots: Dict[int, _EvalNode] = {}
        self.demanded = False

    def done(self, value: Any) -> bool:
        self.value = value
        self.state = _DONE
        return True


class InterpBehavior(TaskBehavior):
    """Evaluate an expression of the applicative language inside a task."""

    __slots__ = ("program", "root", "_steps", "_demands", "_results")

    def __init__(self, program: Program, expr: Expr, env: Env = EMPTY_ENV):
        self.program = program
        self.root = _EvalNode(expr, env, ())
        self._steps = 0
        self._demands: List[Demand] = []
        self._results: Dict[Digit, Any] = {}

    @staticmethod
    def for_work(program: Program, work: WorkSpec) -> "InterpBehavior":
        """Build the behavior for a task packet's work spec."""
        if work.kind == "main":
            if program.main is None:
                raise EvalError("program has no main expression")
            return InterpBehavior(program, program.main, EMPTY_ENV)
        if work.kind == "apply":
            fdef = program.defs[work.fn_name]
            if len(work.args) != fdef.arity:
                raise ArityError(work.fn_name, fdef.arity, len(work.args))
            env = EMPTY_ENV.extend(fdef.params, work.args)
            return InterpBehavior(program, fdef.body, env)
        raise ValueError(f"InterpBehavior cannot execute work kind {work.kind!r}")

    # -- driving --------------------------------------------------------------

    def advance(self, delivered: Dict[Digit, Any]) -> Advance:
        if delivered:
            self._results.update(delivered)
        self._steps = 0
        self._demands = []
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 50_000))
        try:
            finished = self._reduce(self.root)
        finally:
            sys.setrecursionlimit(old_limit)
        return Advance(
            steps=self._steps,
            demands=self._demands,
            completed=finished,
            value=self.root.value if finished else None,
        )

    # -- reduction ------------------------------------------------------------

    def _child(self, node: _EvalNode, slot: int, expr: Expr, env: Env) -> _EvalNode:
        child = node.slots.get(slot)
        if child is None:
            child = _EvalNode(expr, env, node.path + (slot,))
            node.slots[slot] = child
            self._steps += 1  # creating/visiting a redex costs one step
        return child

    def _resolve(self, name: str, env: Env) -> Any:
        if name in env:
            return env.lookup(name)
        fdef = self.program.defs.get(name)
        if fdef is not None:
            return GlobalFunction(fdef.name, fdef.arity)
        prim = lookup_primitive(name)
        if prim is not None:
            return prim
        return env.lookup(name)  # raises UnboundVariableError uniformly

    def _reduce(self, node: _EvalNode) -> bool:
        """Reduce ``node`` as far as possible; True when its value is ready."""
        if node.state == _DONE:
            return True
        expr = node.expr

        if isinstance(expr, Lit):
            self._steps += 1
            return node.done(expr.value)
        if isinstance(expr, Quote):
            self._steps += 1
            return node.done(expr.datum)
        if isinstance(expr, Var):
            self._steps += 1
            return node.done(self._resolve(expr.name, node.env))
        if isinstance(expr, Lambda):
            self._steps += 1
            return node.done(Closure(expr.params, expr.body, node.env))

        if isinstance(expr, If):
            cond = self._child(node, 0, expr.cond, node.env)
            if not self._reduce(cond):
                return False
            branch_expr = expr.then if cond.value is not False else expr.orelse
            branch = self._child(node, 1, branch_expr, node.env)
            if not self._reduce(branch):
                return False
            return node.done(branch.value)

        if isinstance(expr, Let):
            ready = True
            for i, binding in enumerate(expr.bindings):
                child = self._child(node, i, binding, node.env)
                if not self._reduce(child):
                    ready = False  # keep reducing siblings: parallel bindings
            if not ready:
                return False
            values = tuple(node.slots[i].value for i in range(len(expr.bindings)))
            body_env = node.env.extend(expr.names, values)
            body = self._child(node, len(expr.bindings), expr.body, body_env)
            if not self._reduce(body):
                return False
            return node.done(body.value)

        if isinstance(expr, And):
            for i, operand in enumerate(expr.operands):
                child = self._child(node, i, operand, node.env)
                if not self._reduce(child):
                    return False
                if child.value is False:
                    return node.done(False)
            last = node.slots[len(expr.operands) - 1].value if expr.operands else True
            return node.done(last)

        if isinstance(expr, Or):
            for i, operand in enumerate(expr.operands):
                child = self._child(node, i, operand, node.env)
                if not self._reduce(child):
                    return False
                if child.value is not False:
                    return node.done(child.value)
            return node.done(False)

        if isinstance(expr, (App, Local)):
            return self._reduce_application(node, expr)

        raise TypeError(f"unknown expression node: {expr!r}")

    def _reduce_application(self, node: _EvalNode, expr) -> bool:
        fn_node = self._child(node, 0, expr.fn, node.env)
        ready = self._reduce(fn_node)
        arg_nodes = []
        for i, arg in enumerate(expr.args):
            child = self._child(node, 1 + i, arg, node.env)
            if not self._reduce(child):
                ready = False
            arg_nodes.append(child)
        if not ready:
            return False

        fn = fn_node.value
        args = tuple(a.value for a in arg_nodes)
        body_slot = 1 + len(expr.args)

        if isinstance(fn, Primitive):
            self._steps += primitive_cost(fn, args)
            return node.done(fn.apply(args))

        if isinstance(fn, Closure):
            if len(args) != len(fn.params):
                raise ArityError(fn.name, len(fn.params), len(args))
            body = self._child(node, body_slot, fn.body, fn.env.extend(fn.params, args))
            if not self._reduce(body):
                return False
            return node.done(body.value)

        if isinstance(fn, GlobalFunction):
            fdef = self.program.defs[fn.name]
            if len(args) != fdef.arity:
                raise ArityError(fn.name, fdef.arity, len(args))
            if isinstance(expr, Local):
                # Forced-local application: unfold inline, no spawn.
                env = EMPTY_ENV.extend(fdef.params, args)
                body = self._child(node, body_slot, fdef.body, env)
                if not self._reduce(body):
                    return False
                return node.done(body.value)
            # Remote application: demand a child task under digit = path.
            digit = node.path
            if digit in self._results:
                self._steps += 1
                return node.done(self._results[digit])
            if not node.demanded:
                node.demanded = True
                self._steps += 1
                self._demands.append(
                    Demand(digit, WorkSpec(kind="apply", fn_name=fn.name, args=args))
                )
            return False

        raise TypeMismatchError(f"not a function: {show(fn)}")


# ---------------------------------------------------------------------------
# Synthetic-tree behavior
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TreeTaskSpec:
    """One node of a synthetic workload tree.

    ``work`` is charged before children spawn (the parent's own service
    time); ``post_work`` after all child results arrive (combining cost).
    The task's value is ``value + sum(child values)`` — an easily checkable
    deterministic reduction.

    ``chunk``, when set, time-slices ``work``: the task yields the CPU
    after each ``chunk`` steps so queued peers interleave (a long leaf no
    longer monopolizes a single-CPU processor).
    """

    node_id: int
    work: int
    children: Tuple[int, ...] = ()
    value: int = 1
    post_work: int = 1
    chunk: Optional[int] = None


class TreeSpec:
    """A whole synthetic call tree, keyed by node id; root id 0."""

    def __init__(self, nodes: Dict[int, TreeTaskSpec]):
        if 0 not in nodes:
            raise ValueError("TreeSpec requires a root node with id 0")
        for spec in nodes.values():
            for child in spec.children:
                if child not in nodes:
                    raise ValueError(f"node {spec.node_id} references unknown child {child}")
        self.nodes = dict(nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def _fold(self, visit, node_id: int) -> int:
        """``visit(spec, child_results)`` over the subtree, children first.

        A loop, not a recursion: a chain as deep as the interpreter's
        stack limit is a legal tree.  Reversed pre-order puts every child
        ahead of its parent.
        """
        nodes = self.nodes
        order: List[int] = []
        stack = [node_id]
        while stack:
            current = stack.pop()
            order.append(current)
            stack.extend(nodes[current].children)
        results: Dict[int, int] = {}
        for current in reversed(order):
            spec = nodes[current]
            results[current] = visit(spec, [results[c] for c in spec.children])
        return results[node_id]

    def expected_value(self, node_id: int = 0) -> int:
        return self._fold(lambda spec, below: spec.value + sum(below), node_id)

    def total_work(self, node_id: int = 0) -> int:
        return self._fold(
            lambda spec, below: spec.work + (spec.post_work if below else 0) + sum(below),
            node_id,
        )

    def depth(self, node_id: int = 0) -> int:
        return self._fold(lambda spec, below: 1 + max(below) if below else 0, node_id)


class TreeBehavior(TaskBehavior):
    """Execute one synthetic tree node: work, spawn children, combine."""

    __slots__ = ("spec", "node", "_phase", "_remaining_work", "_collected")

    def __init__(self, spec: TreeSpec, node_id: int):
        self.spec = spec
        self.node = spec.nodes[node_id]
        self._phase = 0  # 0 = not started, 1 = waiting children, 2 = done
        self._remaining_work = max(1, self.node.work)
        self._collected: Dict[Digit, Any] = {}

    def advance(self, delivered: Dict[Digit, Any]) -> Advance:
        if delivered:
            self._collected.update(delivered)
        if self._phase == 0:
            chunk = self.node.chunk
            if chunk is not None and self._remaining_work > chunk:
                self._remaining_work -= chunk
                return Advance(steps=chunk, yielded=True)
            steps = self._remaining_work
            self._remaining_work = 0
            self._phase = 1
            demands = [
                Demand(i, WorkSpec(kind="tree", tree_node=child))
                for i, child in enumerate(self.node.children)
            ]
            if not demands:
                self._phase = 2
                return Advance(steps=steps, completed=True, value=self.node.value)
            return Advance(steps=steps, demands=demands)
        if self._phase == 1 and len(self._collected) == len(self.node.children):
            self._phase = 2
            total = self.node.value + sum(
                self._collected[i] for i in range(len(self.node.children))
            )
            return Advance(
                steps=max(1, self.node.post_work), completed=True, value=total
            )
        return Advance(steps=0)
