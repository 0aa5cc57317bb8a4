"""Tests for synthetic tree generators."""

from __future__ import annotations

import gc
import platform
import tracemalloc
from typing import Dict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.behavior import TreeBehavior, TreeSpec, TreeTaskSpec
from repro.util.rng import RngHub
from repro.workloads.trees import (
    MAX_TREE_TASKS,
    SHAPES,
    balanced_tree,
    chain_tree,
    random_tree,
    skewed_tree,
    wide_tree,
)


class TestBalanced:
    def test_size(self):
        spec = balanced_tree(3, 2)
        assert len(spec) == 2**4 - 1

    def test_depth(self):
        assert balanced_tree(4, 2).depth() == 4

    def test_depth_zero_single_node(self):
        spec = balanced_tree(0, 2)
        assert len(spec) == 1
        assert spec.depth() == 0

    def test_fanout_three(self):
        spec = balanced_tree(2, 3)
        assert len(spec) == 1 + 3 + 9

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            balanced_tree(-1, 2)
        with pytest.raises(ValueError):
            balanced_tree(2, 0)


class TestChain:
    def test_size_and_depth(self):
        spec = chain_tree(10)
        assert len(spec) == 10
        assert spec.depth() == 9

    def test_each_node_one_child(self):
        spec = chain_tree(5)
        fanouts = sorted(len(n.children) for n in spec.nodes.values())
        assert fanouts == [0, 1, 1, 1, 1]

    def test_invalid(self):
        with pytest.raises(ValueError):
            chain_tree(0)

    def test_a_chain_deeper_than_the_stack_still_folds(self):
        spec = chain_tree(5000, 1)
        assert (spec.expected_value(), spec.depth()) == (5000, 4999)
        assert spec.total_work() == 5000 + 4999  # work each, post-work on every parent
        # ...and simulates: stamping and checkpointing are O(depth) a task.
        from repro.api import Experiment, execute

        run = execute(Experiment.workload("chain:5000:1").policy("rollback").processors(4).build())
        assert run.completed and run.verified


def _recursive(spec, node_id=0):
    """The folds as they were written: ``(value, total work, depth)``."""
    node = spec.nodes[node_id]
    below = [_recursive(spec, child) for child in node.children]
    return (
        node.value + sum(v for v, _, _ in below),
        node.work + (node.post_work if below else 0) + sum(w for _, w, _ in below),
        1 + max(d for _, _, d in below) if below else 0,
    )


@pytest.mark.parametrize(
    "spec",
    [balanced_tree(4, 3, 7), chain_tree(40, 3), wide_tree(9, 2), skewed_tree(5, 3, 4)]
    + [random_tree(seed, 60) for seed in (0, 1, 2, 3, 5)],
    ids=lambda spec: f"{len(spec)}-tasks",
)
def test_the_iterative_folds_agree_with_the_recursive_definition(spec):
    assert (spec.expected_value(), spec.total_work(), spec.depth()) == _recursive(spec)
    inner = max(n.node_id for n in spec.nodes.values() if n.children)  # some subtree
    assert (
        spec.expected_value(inner), spec.total_work(inner), spec.depth(inner)
    ) == _recursive(spec, inner)


class TestWide:
    def test_shape(self):
        spec = wide_tree(12)
        assert len(spec) == 13
        assert spec.depth() == 1
        assert len(spec.nodes[0].children) == 12

    def test_invalid(self):
        with pytest.raises(ValueError):
            wide_tree(0)


class TestSkewed:
    def test_size(self):
        # each level adds fanout nodes: (fanout-1) leaves + 1 spine
        spec = skewed_tree(4, 3)
        assert len(spec) == 1 + 4 * 3

    def test_depth(self):
        assert skewed_tree(5, 3).depth() == 5


class TestRandom:
    def test_deterministic(self):
        a = random_tree(seed=7, target_tasks=30)
        b = random_tree(seed=7, target_tasks=30)
        assert a.nodes.keys() == b.nodes.keys()
        assert all(a.nodes[k] == b.nodes[k] for k in a.nodes)

    def test_seed_sensitivity(self):
        a = random_tree(seed=1, target_tasks=30)
        b = random_tree(seed=2, target_tasks=30)
        assert any(a.nodes.get(k) != b.nodes.get(k) for k in a.nodes) or len(a) != len(b)

    def test_size_bounded_by_target(self):
        spec = random_tree(seed=3, target_tasks=25)
        assert 1 <= len(spec) <= 25

    def test_invalid(self):
        with pytest.raises(ValueError):
            random_tree(seed=0, target_tasks=0)

    @given(st.integers(min_value=0, max_value=500))
    def test_root_is_zero_and_connected(self, seed):
        spec = random_tree(seed=seed, target_tasks=20)
        assert 0 in spec.nodes
        # every node reachable from the root exactly once (tree property)
        seen = set()

        def walk(nid):
            assert nid not in seen
            seen.add(nid)
            for child in spec.nodes[nid].children:
                walk(child)

        walk(0)
        assert seen == set(spec.nodes)

    @given(st.integers(min_value=0, max_value=200))
    def test_work_in_range(self, seed):
        spec = random_tree(seed=seed, target_tasks=15, work_range=(5, 30))
        assert all(5 <= n.work <= 30 for n in spec.nodes.values())


class TestShapeTable:
    """``SHAPES``: each kind's arithmetic agrees with what its builder builds."""

    @given(st.data())
    def test_task_count_is_the_builders(self, data):
        kind = data.draw(st.sampled_from(sorted(SHAPES)))
        shape = SHAPES[kind]
        args = tuple(
            data.draw(st.integers(minimum if minimum is not None else -3, 5), label=name)
            for name, minimum in shape.args
        )
        assert shape.refusal(args) is None
        built = len(shape.build(*args))
        if kind == "random":
            assert 1 <= built <= shape.tasks(*args)
        else:
            assert built == shape.tasks(*args)

    def test_arguments_left_out_count_at_the_builders_defaults(self):
        # balanced's fanout defaults to 2: depth 17 is 2**18 - 1 tasks, depth 18 too many
        assert SHAPES["balanced"].refusal((17,)) is None
        assert SHAPES["balanced"].refusal((18,)) == (0, f"asks for more than {MAX_TREE_TASKS} tasks")
        assert SHAPES["balanced"].refusal((18, 1)) is None

    def test_minima_are_the_builders_own_range_checks(self):
        for kind, shape in SHAPES.items():
            for at, (name, minimum) in enumerate(shape.args):
                if minimum is None:
                    continue
                args = [max(m or 0, 1) for _, m in shape.args]
                args[at] = minimum - 1
                assert shape.out_of_range(args) == (at, f"{name} must be >= {minimum}")
                with pytest.raises(ValueError, match=f"{name} must be >= {minimum}"):
                    shape.build(*args)

    def test_depth_is_not_bounded_by_the_interpreter_stack(self):
        # the recursive builders died past ~450 levels (random:1:1500 included)
        assert len(balanced_tree(3000, 1)) == 3001
        assert len(skewed_tree(3000, 2)) == 1 + 3000 * 2
        assert 1 <= len(random_tree(seed=1, target_tasks=5000)) <= 5000


# -- the columns, judged by the naive builder ------------------------------------


class _NaiveBuilder:
    """How the shapes were built before a tree was columns: one
    ``TreeTaskSpec`` per node, numbered in creation order, then renumbered
    to preorder by :func:`_reroot`.  The reference the columns must equal."""

    def __init__(self) -> None:
        self.nodes: Dict[int, TreeTaskSpec] = {}

    def add(self, work: int, children: tuple) -> int:
        nid = len(self.nodes)
        self.nodes[nid] = TreeTaskSpec(node_id=nid, work=work, children=children)
        return nid

    def balanced(self, d: int, fanout: int, work: int) -> int:
        level = [self.add(work, ()) for _ in range(fanout**d)]
        for _ in range(d):
            level = [
                self.add(work, tuple(level[i : i + fanout])) for i in range(0, len(level), fanout)
            ]
        return level[0]

    def chain(self, length: int, work: int) -> int:
        prev = None
        for _ in range(length):
            prev = self.add(work, (prev,) if prev is not None else ())
        return prev

    def wide(self, width: int, work: int) -> int:
        return self.add(work, tuple(self.add(work, ()) for _ in range(width)))

    def skewed(self, d: int, fanout: int, work: int) -> int:
        spine = self.add(work, ())
        for _ in range(d):
            leaves = tuple(self.add(work, ()) for _ in range(max(0, fanout - 1)))
            spine = self.add(work, leaves + (spine,))
        return spine

    def random(self, seed: int, target_tasks: int, max_fanout: int, work_range: tuple) -> int:
        hub, budget, stack = RngHub(seed), target_tasks - 1, []
        while True:
            wanted = min(hub.integers("fanout", 0, max_fanout + 1), budget)
            budget -= wanted
            built: list = []
            while len(built) == wanted:
                nid = self.add(hub.integers("work", work_range[0], work_range[1] + 1), tuple(built))
                if not stack:
                    return nid
                wanted, built = stack.pop()
                built.append(nid)
            stack.append((wanted, built))


def _reroot(nodes: Dict[int, TreeTaskSpec], root_id: int) -> Dict[int, TreeTaskSpec]:
    order, stack = [], [root_id]
    while stack:
        nid = stack.pop()
        order.append(nid)
        stack.extend(reversed(nodes[nid].children))
    new = {nid: i for i, nid in enumerate(order)}
    return {
        new[nid]: TreeTaskSpec(
            new[nid], nodes[nid].work, tuple(new[c] for c in nodes[nid].children)
        )
        for nid in order
    }


def _naive(kind: str, *args) -> Dict[int, TreeTaskSpec]:
    builder = _NaiveBuilder()
    return _reroot(builder.nodes, getattr(builder, kind)(*args))


_work = st.integers(-3, 40)
_shapes = st.one_of(
    st.tuples(st.just("balanced"), st.integers(0, 5), st.integers(1, 4), _work),
    st.tuples(st.just("chain"), st.integers(1, 30), _work),
    st.tuples(st.just("wide"), st.integers(1, 30), _work),
    st.tuples(st.just("skewed"), st.integers(0, 8), st.integers(-2, 5), _work),
    st.tuples(
        st.just("random"), st.integers(0, 2**32), st.integers(1, 120), st.integers(0, 6),
        st.tuples(st.integers(0, 20), st.integers(20, 60)),
    ),
)
_BUILD = {
    "balanced": balanced_tree, "chain": chain_tree, "wide": wide_tree,
    "skewed": skewed_tree, "random": random_tree,
}


@settings(max_examples=300, deadline=None)
@given(_shapes)
def test_the_columns_are_the_naive_builders_tree(shape):
    kind, *args = shape
    spec = _BUILD[kind](*args)
    nodes = _naive(kind, *args)
    assert len(spec) == len(nodes) == len(spec.nodes)
    assert list(spec.nodes) == sorted(nodes)
    for nid, node in nodes.items():
        assert spec.nodes[nid] == node
    reference = TreeSpec(nodes)  # the hand-written constructor, same columns
    for judged in (spec, reference):
        assert (judged.expected_value(), judged.total_work(), judged.depth()) == _recursive(
            _Nodes(nodes)
        )


class _Nodes:
    """``_recursive`` reads ``.nodes``: the naive dict is enough."""

    def __init__(self, nodes):
        self.nodes = nodes


#: Shaped like ``cases_driver``'s case-8 tree, ids 0, 1, 2 and 4 (no 3); node
#: 4 carries a value and post-work of its own, so the view must return them.
_SPARSE = {
    0: TreeTaskSpec(0, 5, (1, 4)),
    1: TreeTaskSpec(1, 5, (2,)),
    2: TreeTaskSpec(2, 300, (), chunk=20),
    4: TreeTaskSpec(4, 900, (), value=7, post_work=3, chunk=20),
}


class TestHandWrittenTrees:
    def test_ids_may_leave_holes(self):
        spec = TreeSpec(_SPARSE)
        assert len(spec) == len(spec.nodes) == 4
        assert list(spec.nodes) == [0, 1, 2, 4] and dict(spec.nodes) == _SPARSE
        assert 3 not in spec.nodes and spec.nodes.get(3) is None
        assert 5 not in spec.nodes and -1 not in spec.nodes
        with pytest.raises(KeyError):
            spec.nodes[3]
        assert (spec.expected_value(), spec.total_work(), spec.depth()) == _recursive(
            _Nodes(_SPARSE)
        )
        assert spec.expected_value(4) == 7
        with pytest.raises(KeyError):
            spec.depth(3)

    def test_a_node_past_a_hole_runs(self):
        behavior = TreeBehavior(TreeSpec(_SPARSE), 4)
        advances = [behavior.advance({}) for _ in range(45)]
        assert sum(a.yielded for a in advances) == 44
        assert advances[-1].completed and advances[-1].value == 7

    def test_ids_are_non_negative_integers(self):
        with pytest.raises(ValueError):
            TreeSpec({0: TreeTaskSpec(0, 1, (-1,)), -1: TreeTaskSpec(-1, 1, ())})


@pytest.mark.skipif(
    platform.python_implementation() != "CPython", reason="object sizes are CPython's"
)
def test_the_benchmark_trees_are_small():
    """``faultfree-scale``'s two trees, 18 430 nodes, are columns: 3.01 MiB
    of ``TreeTaskSpec`` objects, child tuples and id dicts before, 0.71
    MiB after (CPython 3.11)."""
    gc.collect()
    tracemalloc.start()
    try:
        trees = [balanced_tree(10, 2, 20), balanced_tree(13, 2, 20)]
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, trees)) == 2047 + 16383
    assert retained <= 1.2 * 2**20
