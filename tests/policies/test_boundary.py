"""The policy boundary, pinned: recovery policies reach a node only
through its public protocol verbs.

An ``ast`` walk over every policy module asserts there is no attribute
access ``x._name`` (single underscore, non-dunder) unless ``x`` is
``self``/``cls``, and no import of a ``_``-prefixed name — so a policy
that starts reading private node or machine state fails here, not in an
audit.

A second walk, over the node and every policy, counts where each
recovery rule is *stated*: one loop over a checkpoint-table entry, one
``+=`` per recovery counter, one ``emit`` per recovery trace kind, and
no loop at all inside a recovering policy's ``on_failure_detected`` —
so a rule copied into a second policy fails here too.
"""

from __future__ import annotations

import ast
import glob
import os

import pytest

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src", "repro",
)
POLICY_FILES = sorted(glob.glob(os.path.join(SRC, "policies", "*.py"))) + [
    os.path.join(SRC, "core", f"{name}.py")
    for name in ("rollback", "splice", "replication")
]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def boundary_leaks(source: str) -> list:
    """``(line, what)`` for every private reach-through in ``source``."""
    leaks = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            owner = node.value
            if not (isinstance(owner, ast.Name) and owner.id in ("self", "cls")):
                leaks.append((node.lineno, f"{ast.unparse(owner)}.{node.attr}"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            for alias in node.names:
                dotted = f"{module}.{alias.name}".strip(".")
                if any(_private(part) for part in dotted.split(".")):
                    leaks.append((node.lineno, f"import {dotted}"))
    return leaks


def test_the_lint_covers_every_policy_module():
    # a glob that matched nothing would make the lint pass vacuously
    names = {os.path.relpath(path, SRC) for path in POLICY_FILES}
    assert names >= {
        "policies/incremental.py", "policies/reversible.py",
        "core/rollback.py", "core/splice.py", "core/replication.py",
    }


@pytest.mark.parametrize(
    "path", POLICY_FILES, ids=lambda p: os.path.relpath(p, SRC)
)
def test_policy_touches_no_private_state(path):
    with open(path, "r", encoding="utf-8") as fh:
        assert boundary_leaks(fh.read()) == []


def test_the_lint_sees_a_leak():
    # the walk itself, on the shapes it must catch and the ones it must not
    leaky = (
        "from repro.sim.node import _make_ready\n"
        "import repro.sim._internals\n"
        "def on_failure(self, node):\n"
        "    node._send_ack(1, 2)\n"
        "    node.machine._queue.clear()\n"
        "    self._own = node.__class__.__name__\n"
        "    cls._shared = 1\n"
    )
    assert [what for _, what in sorted(boundary_leaks(leaky))] == [
        "import repro.sim.node._make_ready",
        "import repro.sim._internals",
        "node._send_ack",
        "node.machine._queue",
    ]


# -- every recovery rule stated once ---------------------------------------------

RULE_FILES = sorted(
    glob.glob(os.path.join(SRC, "core", "*.py"))
    + glob.glob(os.path.join(SRC, "policies", "*.py"))
    + [os.path.join(SRC, "sim", "node.py")]
)
RECOVERY_COUNTERS = ("recoveries_triggered", "results_ignored", "tasks_aborted", "twins_created")
RECOVERY_KINDS = ("result_ignored", "task_aborted", "twin_created")
COMPOSING_POLICIES = {
    "core/rollback.py", "core/splice.py", "policies/incremental.py", "policies/reversible.py",
}
_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _calls_entry(expr: ast.AST) -> bool:
    # ``x.entry(...)`` anywhere in the iterable, so ``list(x.entry(...))`` counts
    return any(
        isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "entry"
        for n in ast.walk(expr)
    )


def rule_sites(source: str) -> dict:
    """``{rule: [line, ...]}`` for every statement of a recovery rule in ``source``."""
    sites: dict = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.For, ast.comprehension)) and _calls_entry(node.iter):
            sites.setdefault("entry-loop", []).append(getattr(node, "lineno", node.iter.lineno))
        elif (
            isinstance(node, ast.AugAssign)
            and isinstance(node.op, ast.Add)
            and isinstance(node.target, ast.Attribute)
            and node.target.attr in RECOVERY_COUNTERS
        ):
            sites.setdefault(f"+= {node.target.attr}", []).append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "emit"
        ):
            for arg in node.args:
                if isinstance(arg, ast.Constant) and arg.value in RECOVERY_KINDS:
                    sites.setdefault(f"emit {arg.value}", []).append(node.lineno)
        elif isinstance(node, ast.FunctionDef) and node.name == "on_failure_detected":
            for inner in ast.walk(node):
                if isinstance(inner, _LOOPS):
                    sites.setdefault("loop in on_failure_detected", []).append(inner.lineno)
    return sites


def test_every_recovery_rule_has_exactly_one_site():
    found: dict = {}
    for path in RULE_FILES:
        rel = os.path.relpath(path, SRC)
        with open(path, "r", encoding="utf-8") as fh:
            for rule, lines in rule_sites(fh.read()).items():
                if rule == "loop in on_failure_detected" and rel not in COMPOSING_POLICIES:
                    continue
                found.setdefault(rule, []).extend(f"{rel}:{line}" for line in lines)
    expected = (
        ["entry-loop"]
        + [f"+= {name}" for name in RECOVERY_COUNTERS]
        + [f"emit {kind}" for kind in RECOVERY_KINDS]
    )
    # exactly the expected rules (so no composing policy loops), one site each
    assert {rule: len(at) for rule, at in found.items()} == dict.fromkeys(expected, 1), found


def test_the_scan_sees_a_duplicated_site():
    twice = (
        "def on_failure_detected(self, node, dead):\n"
        "    for c in list(self.table.entry(dead)):\n"
        "        node.metrics.twins_created += 1\n"
        "    stamps = [c.stamp for c in table.entry(dead)]\n"
        "    node.trace.emit(now, node.id, 'task_aborted', stamp=s)\n"
        "def elsewhere(node):\n"
        "    node.metrics.twins_created += 1\n"
        "    node.metrics.twins_created = 0\n"
        "    node.trace.emit(now, node.id, 'task_aborted')\n"
        "    node.trace.emit(now, node.id, 'task_started')\n"
    )
    assert {rule: len(at) for rule, at in rule_sites(twice).items()} == {
        "entry-loop": 2,
        "+= twins_created": 2,
        "emit task_aborted": 2,
        "loop in on_failure_detected": 2,
    }
