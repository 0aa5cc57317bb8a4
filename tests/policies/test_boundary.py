"""The policy boundary, pinned: recovery policies reach a node only
through its public protocol verbs.

An ``ast`` walk over every policy module asserts there is no attribute
access ``x._name`` (single underscore, non-dunder) unless ``x`` is
``self``/``cls``, and no import of a ``_``-prefixed name — so a policy
that starts reading private node or machine state fails here, not in an
audit.
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
