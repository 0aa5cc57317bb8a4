"""Parametric synthetic call trees.

These give the benchmark harness precise control over the quantities the
paper's arguments depend on: tree depth (how late a fault can strike),
fanout (how much parallelism a failure severs), and per-task grain (how
much work an orphan's salvaged result embodies).

All generators are deterministic: ``random_tree`` takes an explicit seed.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sim.behavior import TreeSpec, TreeTaskSpec
from repro.util.rng import RngHub


class _Builder:
    def __init__(self) -> None:
        self.nodes: Dict[int, TreeTaskSpec] = {}
        self._next = 0

    def add(self, work: int, children: tuple, value: int = 1, post_work: int = 1) -> int:
        nid = self._next
        self._next += 1
        self.nodes[nid] = TreeTaskSpec(
            node_id=nid, work=work, children=children, value=value, post_work=post_work
        )
        return nid

    def spec(self) -> TreeSpec:
        return TreeSpec(self.nodes)

    # The recursive shapes recurse through ``self``: a nested function
    # that calls itself is a function <-> closure-cell cycle, which kept
    # the builder and its pre-reroot tree alive until a collector pass.

    def balanced(self, d: int, fanout: int, work: int) -> int:
        if d == 0:
            return self.add(work, ())
        return self.add(work, tuple(self.balanced(d - 1, fanout, work) for _ in range(fanout)))

    def skewed(self, d: int, fanout: int, work: int) -> int:
        if d == 0:
            return self.add(work, ())
        leaves = tuple(self.add(work, ()) for _ in range(max(0, fanout - 1)))
        return self.add(work, leaves + (self.skewed(d - 1, fanout, work),))

    def random(self, hub: RngHub, budget: list, max_fanout: int, work_range: tuple) -> int:
        n_children = min(hub.integers("fanout", 0, max_fanout + 1), budget[0])
        budget[0] -= n_children
        children = tuple(
            self.random(hub, budget, max_fanout, work_range) for _ in range(n_children)
        )
        return self.add(hub.integers("work", work_range[0], work_range[1] + 1), children)


def balanced_tree(depth: int, fanout: int = 2, work: int = 10) -> TreeSpec:
    """A complete ``fanout``-ary tree of the given depth, uniform grain."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if fanout < 1:
        raise ValueError("fanout must be >= 1")
    builder = _Builder()
    root = builder.balanced(depth, fanout, work)
    # Re-root: TreeSpec requires the root at id 0; remap ids.
    return _reroot(builder.spec(), root)


def chain_tree(length: int, work: int = 10) -> TreeSpec:
    """A linear chain (each task spawns one child): worst case for
    rollback, since a late fault severs everything below one cut."""
    if length < 1:
        raise ValueError("length must be >= 1")
    builder = _Builder()
    prev: Optional[int] = None
    for _ in range(length):
        prev = builder.add(work, (prev,) if prev is not None else ())
    return _reroot(builder.spec(), prev)


def wide_tree(width: int, work: int = 10) -> TreeSpec:
    """One root fanning out to ``width`` leaves: maximal parallelism,
    minimal depth — the easy case for every recovery scheme."""
    if width < 1:
        raise ValueError("width must be >= 1")
    builder = _Builder()
    leaves = tuple(builder.add(work, ()) for _ in range(width))
    root = builder.add(work, leaves)
    return _reroot(builder.spec(), root)


def skewed_tree(depth: int, fanout: int = 3, work: int = 10) -> TreeSpec:
    """A 'vine with tufts': each level has one spine child that recurses
    and ``fanout - 1`` leaf children.  Models the unbalanced trees of
    search workloads (nqueens-like)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    builder = _Builder()
    root = builder.skewed(depth, fanout, work)
    return _reroot(builder.spec(), root)


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
    if target_tasks < 1:
        raise ValueError("target_tasks must be >= 1")
    builder = _Builder()
    root = builder.random(RngHub(seed), [target_tasks - 1], max_fanout, work_range)
    return _reroot(builder.spec(), root)


def _reroot(spec: TreeSpec, root_id: int) -> TreeSpec:
    """Renumber node ids so the given root becomes id 0 (preorder)."""
    order = []
    stack = [root_id]
    while stack:
        nid = stack.pop()
        order.append(nid)
        stack.extend(reversed(spec.nodes[nid].children))
    mapping = {nid: new for new, nid in enumerate(order)}
    renumbered = {}
    for nid in order:
        node = spec.nodes[nid]
        renumbered[mapping[nid]] = TreeTaskSpec(
            node_id=mapping[nid],
            work=node.work,
            children=tuple(mapping[c] for c in node.children),
            value=node.value,
            post_work=node.post_work,
        )
    return TreeSpec(renumbered)
