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

import struct
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Dict, Iterator, List, Optional, Tuple

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
    """A whole synthetic call tree, stored as columns indexed by node id;
    root id 0.

    ``work``, ``value``, ``post_work`` and ``chunk`` hold each node's
    :class:`TreeTaskSpec` fields at its id, and node ``i``'s children are
    ``child_ids[child_start[i]:child_start[i + 1]]`` (packed C ints, see
    :func:`_ints`): a tree is a few flat sequences however many nodes it
    has, and no per-node object lives as long as the workload.  The shape
    builders write the columns in preorder (:meth:`preorder`);
    ``TreeSpec(mapping)`` builds them from a hand-written
    ``{id: TreeTaskSpec}``, whose ids may leave holes (a missing id reads
    ``work`` None).  :attr:`nodes` is the read-only mapping view, building
    a :class:`TreeTaskSpec` per lookup.  Callers must not mutate the
    columns.
    """

    __slots__ = ("work", "value", "post_work", "chunk", "child_ids", "child_start", "_size")

    def __init__(self, nodes: Mapping[int, TreeTaskSpec]):
        if 0 not in nodes:
            raise ValueError("TreeSpec requires a root node with id 0")
        for nid, spec in nodes.items():
            if not isinstance(nid, int) or nid < 0:
                raise ValueError(f"node id {nid!r} is not a non-negative integer")
            for child in spec.children:
                if child not in nodes:
                    raise ValueError(f"node {spec.node_id} references unknown child {child}")
        n = max(nodes) + 1
        work: List[Optional[int]] = [None] * n
        value = [0] * n
        post_work = [0] * n
        chunk: List[Optional[int]] = [None] * n
        counts = [0] * n
        child_ids: List[int] = []
        for nid in range(n):
            spec = nodes.get(nid)
            if spec is not None:
                work[nid], value[nid] = spec.work, spec.value
                post_work[nid], chunk[nid] = spec.post_work, spec.chunk
                counts[nid] = len(spec.children)
                child_ids.extend(spec.children)
        self._fill(work, value, post_work, chunk, _offsets(counts), _ints(child_ids), len(nodes))

    @classmethod
    def preorder(cls, counts: List[int], work: List[int]) -> "TreeSpec":
        """The tree whose node ``i``, numbered in preorder from the root
        (first child first), has ``counts[i]`` children and ``work[i]``
        work; every value and post-work is 1 and nothing is time-sliced."""
        n = len(counts)
        child_start = _offsets(counts)
        child_ids = [0] * child_start[-1]
        waiting: List[List[int]] = []  # [next slot, end] of parents short of children
        for nid, count in enumerate(counts):
            if waiting:
                top = waiting[-1]
                child_ids[top[0]] = nid
                top[0] += 1
                if top[0] == top[1]:
                    waiting.pop()
            if count:
                waiting.append([child_start[nid], child_start[nid + 1]])
        if waiting or child_start[-1] != n - 1:
            raise ValueError("child counts do not describe one tree in preorder")
        spec = cls.__new__(cls)
        spec._fill(work, [1] * n, [1] * n, [None] * n, child_start, _ints(child_ids), n)
        return spec

    def _fill(self, work, value, post_work, chunk, child_start, child_ids, size) -> None:
        self.work = work
        self.value = value
        self.post_work = post_work
        self.chunk = chunk
        self.child_ids = child_ids
        self.child_start = child_start
        self._size = size

    def __len__(self) -> int:
        return self._size

    @property
    def nodes(self) -> Mapping[int, TreeTaskSpec]:
        return _TreeNodes(self)

    def children(self, node_id: int) -> Tuple[int, ...]:
        start = self.child_start
        return tuple(self.child_ids[start[node_id] : start[node_id + 1]])

    def _levels(self, node_id: int) -> Iterator[List[int]]:
        """The ids of ``node_id``'s subtree, one list per level, root first.

        A loop, not a recursion: a chain as deep as the interpreter's
        stack limit is a legal tree.
        """
        if node_id not in self.nodes:
            raise KeyError(node_id)
        child_ids, start = self.child_ids, self.child_start
        level = [node_id]
        while level:
            yield level
            level = [c for nid in level for c in child_ids[start[nid] : start[nid + 1]]]

    # A node's value is its own plus its children's, so a subtree's is the
    # sum over its nodes; its work adds post-work on every inner node.

    def expected_value(self, node_id: int = 0) -> int:
        value = self.value
        return sum(value[nid] for level in self._levels(node_id) for nid in level)

    def total_work(self, node_id: int = 0) -> int:
        work, post_work, start = self.work, self.post_work, self.child_start
        return sum(
            work[nid] + (post_work[nid] if start[nid + 1] > start[nid] else 0)
            for level in self._levels(node_id)
            for nid in level
        )

    def depth(self, node_id: int = 0) -> int:
        return sum(1 for _ in self._levels(node_id)) - 1


def _ints(values: List[int]) -> memoryview:
    """``values`` packed as C ints, read through a memoryview: 4 bytes an
    id, where a list would hold an 8-byte pointer to a 32-byte int
    object.  (The ``array`` module would do the same, but it is an
    extension module, and loading it costs every process about 0.1 MiB
    of resident memory.)"""
    return memoryview(struct.pack(f"{len(values)}i", *values)).cast("i")


def _offsets(counts: List[int]) -> memoryview:
    """``[0, c0, c0 + c1, ...]``: where each node's children start."""
    return _ints([0, *accumulate(counts)])


class _TreeNodes(Mapping):
    """``TreeSpec.nodes``: id -> :class:`TreeTaskSpec`, built per lookup."""

    __slots__ = ("_spec",)

    def __init__(self, spec: TreeSpec):
        self._spec = spec

    def __getitem__(self, nid: int) -> TreeTaskSpec:
        spec = self._spec
        if not isinstance(nid, int) or not 0 <= nid < len(spec.work) or spec.work[nid] is None:
            raise KeyError(nid)
        return TreeTaskSpec(
            nid, spec.work[nid], spec.children(nid), spec.value[nid], spec.post_work[nid],
            spec.chunk[nid],
        )

    def __iter__(self) -> Iterator[int]:
        return (nid for nid, work in enumerate(self._spec.work) if work is not None)

    def __len__(self) -> int:
        return len(self._spec)


class TreeBehavior(TaskBehavior):
    """Execute one synthetic tree node: work, spawn children, combine."""

    __slots__ = ("spec", "node_id", "_phase", "_remaining_work", "_collected")

    def __init__(self, spec: TreeSpec, node_id: int):
        self.spec = spec
        self.node_id = node_id
        self._phase = 0  # 0 = not started, 1 = waiting children, 2 = done
        self._remaining_work = max(1, spec.work[node_id])
        #: Child results by digit; the first delivery allocates it (a
        #: waiting parent holds none until a child answers).
        self._collected: Optional[Dict[Digit, Any]] = None

    def advance(self, delivered: Dict[Digit, Any]) -> Advance:
        if delivered:
            if self._collected is None:
                self._collected = dict(delivered)
            else:
                self._collected.update(delivered)
        spec, nid = self.spec, self.node_id
        if self._phase == 0:
            chunk = spec.chunk[nid]
            if chunk is not None and self._remaining_work > chunk:
                self._remaining_work -= chunk
                return Advance(steps=chunk, yielded=True)
            steps = self._remaining_work
            self._remaining_work = 0
            self._phase = 1
            start = spec.child_start
            demands = [
                Demand(i, WorkSpec(kind="tree", tree_node=child))
                for i, child in enumerate(spec.child_ids[start[nid] : start[nid + 1]])
            ]
            if not demands:
                self._phase = 2
                return Advance(steps=steps, completed=True, value=spec.value[nid])
            return Advance(steps=steps, demands=demands)
        fanout = spec.child_start[nid + 1] - spec.child_start[nid]
        if self._phase == 1 and self._collected is not None and len(self._collected) == fanout:
            self._phase = 2
            total = spec.value[nid] + sum(self._collected[i] for i in range(fanout))
            return Advance(steps=max(1, spec.post_work[nid]), completed=True, value=total)
        return Advance(steps=0)
