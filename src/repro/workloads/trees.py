"""Parametric synthetic call trees.

These give the benchmark harness precise control over the quantities the
paper's arguments depend on: tree depth (how late a fault can strike),
fanout (how much parallelism a failure severs), and per-task grain (how
much work an orphan's salvaged result embodies).

All generators are deterministic: ``random_tree`` takes an explicit seed.

:data:`SHAPES` states each kind once — builder, argument names, the
minimum each argument may take, how many are required, and the task
count as arithmetic on the arguments.  ``WorkloadSpec`` parses,
validates and builds ``kind:ARG:...`` strings against it, and the
builders' own range checks read it.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.behavior import TreeSpec
from repro.util.rng import RngHub

#: The largest tree a spec string may ask for; the benchmark's largest
#: (``balanced:13:2``) has 16 383 tasks.
MAX_TREE_TASKS = 1 << 18


# The shapes are loops over child counts in preorder (first child
# first), the numbering :meth:`TreeSpec.preorder` links; none recurses, so
# depth is bounded by memory and never by the interpreter's stack.


def balanced_tree(depth: int, fanout: int = 2, work: int = 10) -> TreeSpec:
    """A complete ``fanout``-ary tree of the given depth, uniform grain."""
    SHAPES["balanced"].require(depth, fanout, work)
    if fanout == 1:  # a chain: the level-by-level copies below would be quadratic
        return chain_tree(depth + 1, work)
    counts = [0]
    for _ in range(depth):  # a node, then its fanout subtrees one level shallower
        counts = [fanout] + counts * fanout
    return TreeSpec.preorder(counts, [work] * len(counts))


def chain_tree(length: int, work: int = 10) -> TreeSpec:
    """A linear chain (each task spawns one child): worst case for
    rollback, since a late fault severs everything below one cut."""
    SHAPES["chain"].require(length, work)
    return TreeSpec.preorder([1] * (length - 1) + [0], [work] * length)


def wide_tree(width: int, work: int = 10) -> TreeSpec:
    """One root fanning out to ``width`` leaves: maximal parallelism,
    minimal depth — the easy case for every recovery scheme."""
    SHAPES["wide"].require(width, work)
    return TreeSpec.preorder([width] + [0] * width, [work] * (width + 1))


def skewed_tree(depth: int, fanout: int = 3, work: int = 10) -> TreeSpec:
    """A 'vine with tufts': each level has one spine child that recurses
    and ``fanout - 1`` leaf children.  Models the unbalanced trees of
    search workloads (nqueens-like)."""
    SHAPES["skewed"].require(depth, fanout, work)
    level = max(1, fanout)  # the leaves come first, the spine child last
    counts = ([level] + [0] * (level - 1)) * depth + [0]
    return TreeSpec.preorder(counts, [work] * len(counts))


def random_tree(
    seed: int,
    target_tasks: int = 100,
    max_fanout: int = 4,
    work_range: tuple = (5, 30),
) -> TreeSpec:
    """A random tree with roughly ``target_tasks`` tasks.

    Fanout per node is uniform in ``[0, max_fanout]`` (biased to keep the
    tree growing until the budget runs out), work uniform in
    ``work_range``.  Fully determined by ``seed``.
    """
    SHAPES["random"].require(seed, target_tasks)
    hub = RngHub(seed)
    budget = target_tasks - 1
    counts: List[int] = []
    work: List[int] = []
    # Depth-first over an explicit stack of (id, children wanted, children
    # built): a node's fanout is drawn on the way down and its work on
    # the way up, so both streams are read in preorder / postorder.
    stack = []
    while True:
        wanted = min(hub.integers("fanout", 0, max_fanout + 1), budget)
        budget -= wanted
        nid = len(counts)
        counts.append(wanted)
        work.append(0)
        built = 0
        while built == wanted:
            work[nid] = hub.integers("work", work_range[0], work_range[1] + 1)
            if not stack:
                return TreeSpec.preorder(counts, work)
            nid, wanted, built = stack.pop()
            built += 1
        stack.append((nid, wanted, built))


# -- the shape table -----------------------------------------------------------


def _balanced_tasks(depth: int, fanout: int, work: int) -> int:
    if fanout == 1:
        return depth + 1
    total = level = 1
    for _ in range(depth):
        if total > MAX_TREE_TASKS:  # already refused: stop multiplying
            break
        level *= fanout
        total += level
    return total


@dataclass(frozen=True)
class TreeShape:
    """One synthetic-tree kind: what builds it and what it accepts."""

    build: Callable[..., TreeSpec]
    #: ``(argument name, minimum or None)`` in positional order.
    args: Tuple[Tuple[str, Optional[int]], ...]
    #: How many leading arguments must be given (the rest have defaults).
    required: int
    #: Task count (for ``random``, its ceiling) from the full argument list.
    tasks: Callable[..., int]

    def out_of_range(self, args: Sequence[int]) -> Optional[Tuple[int, str]]:
        """``(index, why)`` of the first argument below its minimum, or None."""
        for at, ((name, minimum), value) in enumerate(zip(self.args, args)):
            if minimum is not None and value < minimum:
                return at, f"{name} must be >= {minimum}"
        return None

    def require(self, *args: int) -> None:
        """The builders' own range check (the Python API is not size-capped)."""
        problem = self.out_of_range(args)
        if problem is not None:
            raise ValueError(problem[1])

    def refusal(self, args: Sequence[int]) -> Optional[Tuple[int, str]]:
        """Why a spec string may not ask for ``args``: an argument out of
        range, or more than :data:`MAX_TREE_TASKS` tasks — counted by
        arithmetic (the builder's defaults fill what is not given), so
        nothing is built to find out."""
        problem = self.out_of_range(args)
        if problem is None:
            full = tuple(args) + self._defaults[len(args) : len(self.args)]
            if self.tasks(*full) > MAX_TREE_TASKS:
                problem = 0, f"asks for more than {MAX_TREE_TASKS} tasks"
        return problem

    @cached_property
    def _defaults(self) -> tuple:
        # the builder's own keyword defaults by position, read once: a
        # sweep parses the same few kinds thousands of times
        return tuple(p.default for p in inspect.signature(self.build).parameters.values())


#: Kind -> shape, in the order diagnostics list the kinds.
SHAPES: Dict[str, TreeShape] = {
    "balanced": TreeShape(
        balanced_tree, (("depth", 0), ("fanout", 1), ("work", None)), 1, _balanced_tasks
    ),
    "chain": TreeShape(
        chain_tree, (("length", 1), ("work", None)), 1, lambda length, work: length
    ),
    "skewed": TreeShape(
        skewed_tree, (("depth", 0), ("fanout", None), ("work", None)), 1,
        lambda depth, fanout, work: 1 + depth * max(1, fanout),
    ),
    "wide": TreeShape(
        wide_tree, (("width", 1), ("work", None)), 1, lambda width, work: width + 1
    ),
    "random": TreeShape(
        random_tree, (("seed", None), ("target_tasks", 1)), 2,
        lambda seed, target_tasks: target_tasks,
    ),
}
