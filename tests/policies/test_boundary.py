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
so a rule copied into a second policy fails here too.  The same walk
over the whole package pins the owner of each fact that once had two:
one caller of ``run_simulation`` outside ``sim/``, one fault-time
formula, one writer of a fulfilled spawn state, one importer of each of
CPython's hash modules (``hashlib``, which maps OpenSSL, only as the
SHA-256 owner's fallback), and one reader of external JSON.

A third walk pins that nothing the simulator keeps goes unread: every
dataclass field and ``self.X =`` attribute of a class under ``sim/``,
``core/``, ``load/``, ``baselines/`` and ``config.py`` is loaded
somewhere in ``src/``, ``tests/`` or ``bench/``.

A fourth walk pins that a run is a pure function of its spec: nothing
under ``src/repro`` reads the process environment (``os.environ``,
``os.getenv``).

A fifth walk pins where a run reads its seed: only the machine's
``RngHub`` construction and the arrival sampler, the two reads
``RunResult.seed_blind`` watches.
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
ALL_FILES = sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True))
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
    + [os.path.join(SRC, "sim", "node.py"), os.path.join(SRC, "sim", "task.py")]
)
RECOVERY_COUNTERS = ("recoveries_triggered", "results_ignored", "tasks_aborted", "twins_created")
RECOVERY_KINDS = ("result_ignored", "task_aborted", "twin_created")
#: The node protocol's rules, keyed by the call that states them: every
#: send to the network, every ack-timer cancel, every a→b routing.
PROTOCOL_CALLS = {("network", "send"), ("queue", "cancel"), (None, "expand_spawn")}
#: Spawn-record fields only the record's own fulfil / un-fulfil write.
RECORD_FIELDS = ("fulfilled_by",)
#: Second copies of a spawn record's state, deleted: the state says it.
GONE_NAMES = ("has_result", "checkpointed")
#: Hash modules; each has one importer.  ``_hashlib`` is OpenSSL's.
DIGEST_MODULES = ("hashlib", "_hashlib", "_sha2", "_sha256", "_blake2")
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


def _protocol_call(call: ast.Call):
    """``"network.send"``-style name of a protocol call, else None."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    owner = func.value.attr if isinstance(func.value, ast.Attribute) else None
    for want_owner, method in PROTOCOL_CALLS:
        if func.attr == method and want_owner in (None, owner):
            return f"{want_owner}.{method}" if want_owner else method
    return None


def _refuses_on_write_off(branch: ast.If) -> bool:
    # ``if <x> in <y>.known_dead:`` whose body hands a result to the policy
    test_reads_known_dead = any(
        isinstance(n, ast.Compare)
        and isinstance(n.ops[0], ast.In)
        and isinstance(n.comparators[0], ast.Attribute)
        and n.comparators[0].attr == "known_dead"
        for n in ast.walk(branch.test)
    )
    return test_reads_known_dead and any(
        isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == "on_result_undeliverable"
        for stmt in branch.body
        for n in ast.walk(stmt)
    )


def _fulfilled(expr: ast.AST) -> bool:
    # ``SpawnState.FULFILLED`` or a module alias of it
    if isinstance(expr, ast.Attribute):
        return expr.attr == "FULFILLED"
    return isinstance(expr, ast.Name) and expr.id.lstrip("_") == "FULFILLED"


def _fault_time(call: ast.Call) -> bool:
    # ``max(1.0, ...)``: fraction-mode fault placement
    return (
        isinstance(call.func, ast.Name) and call.func.id == "max" and len(call.args) == 2
        and isinstance(call.args[0], ast.Constant) and repr(call.args[0].value) == "1.0"
    )


def _with_function(tree: ast.AST):
    """``(node, name of the innermost def around it)`` for every node."""
    stack = [(tree, "")]
    while stack:
        node, func = stack.pop()
        yield node, func
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        stack.extend((child, func) for child in ast.iter_child_nodes(node))


def rule_sites(source: str) -> dict:
    """``{rule: [(line, function), ...]}`` for every statement of a
    recovery or node-protocol rule, or of a fact with one owner, in
    ``source``."""
    sites: dict = {}

    def site(rule, node, func):
        sites.setdefault(rule, []).append((node.lineno, func))

    for node, func in _with_function(ast.parse(source)):
        if isinstance(node, ast.For) and _calls_entry(node.iter):
            site("entry-loop", node, func)
        elif isinstance(node, ast.comprehension) and _calls_entry(node.iter):
            site("entry-loop", node.iter, func)
        elif (
            isinstance(node, ast.AugAssign)
            and isinstance(node.op, ast.Add)
            and isinstance(node.target, ast.Attribute)
            and node.target.attr in RECOVERY_COUNTERS
        ):
            site(f"+= {node.target.attr}", node, func)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Attribute) and target.attr in RECORD_FIELDS:
                    site(f"write {target.attr}", node, func)
                elif (
                    isinstance(target, ast.Attribute) and target.attr == "state"
                    and any(_fulfilled(n) for n in ast.walk(node.value))
                ):
                    site("state = FULFILLED", node, func)
        elif isinstance(node, ast.If) and _refuses_on_write_off(node):
            site("known_dead refusal", node, func)
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and node.func.attr == "emit":
                for arg in node.args:
                    if isinstance(arg, ast.Constant) and arg.value in RECOVERY_KINDS:
                        site(f"emit {arg.value}", node, func)
            call = _protocol_call(node)
            if call is not None:
                site(f"{call}(", node, func)
            callee = node.func.attr if isinstance(node.func, ast.Attribute) else (
                node.func.id if isinstance(node.func, ast.Name) else None
            )
            if callee == "run_simulation":
                site("run_simulation(", node, func)
            elif _fault_time(node):
                site("max(1.0,", node, func)
            elif callee in ("load", "loads") and isinstance(node.func, ast.Attribute) and (
                ast.unparse(node.func.value).lstrip("_") == "json"
            ):
                site("json.load(", node, func)
        elif isinstance(node, ast.FunctionDef) and node.name == "on_failure_detected":
            for inner in ast.walk(node):
                if isinstance(inner, _LOOPS):
                    site("loop in on_failure_detected", inner, func)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [node.module] if isinstance(node, ast.ImportFrom) else [
                alias.name for alias in node.names
            ]
            for module in modules:
                if module in DIGEST_MODULES:
                    site(f"import {module}", node, func)
        name = (
            node.attr if isinstance(node, ast.Attribute)
            else node.id if isinstance(node, ast.Name)
            else node.name if isinstance(node, ast.FunctionDef)
            else None
        )
        if name in GONE_NAMES:
            site(name, node, func)
    return sites


def _all_sites(paths=RULE_FILES) -> dict:
    found: dict = {}
    for path in paths:
        rel = os.path.relpath(path, SRC)
        with open(path, "r", encoding="utf-8") as fh:
            for rule, at in rule_sites(fh.read()).items():
                if rule == "loop in on_failure_detected" and rel not in COMPOSING_POLICIES:
                    continue
                found.setdefault(rule, []).extend(
                    f"{rel}:{func}" for _, func in sorted(at)
                )
    return found


def test_every_recovery_rule_has_exactly_one_site():
    found = _all_sites()
    expected = (
        ["entry-loop"]
        + [f"+= {name}" for name in RECOVERY_COUNTERS]
        + [f"emit {kind}" for kind in RECOVERY_KINDS]
        + ["network.send(", "queue.cancel(", "expand_spawn(", "known_dead refusal"]
        + [f"write {name}" for name in RECORD_FIELDS]
        + ["state = FULFILLED"]
    )
    # exactly the expected rules (so no composing policy loops), and one
    # site each — the record fields one fulfil and one un-fulfil
    counts = {rule: len(at) for rule, at in found.items()}
    assert counts == {rule: 2 if rule.startswith("write ") else 1 for rule in expected}, found


def test_each_node_protocol_rule_lives_in_its_method():
    found = _all_sites()
    assert found["network.send("] == ["sim/node.py:send"]
    assert found["queue.cancel("] == ["sim/node.py:_disarm"]
    assert found["expand_spawn("] == ["sim/node.py:_launch"]
    assert found["known_dead refusal"] == ["sim/node.py:forward_result"]
    for name in RECORD_FIELDS:
        assert found[f"write {name}"] == ["sim/task.py:fulfill", "sim/task.py:unfulfill"]
    assert found["state = FULFILLED"] == ["sim/task.py:fulfill"]


def test_each_fact_has_one_owner():
    found = _all_sites(ALL_FILES)
    # one execution path: outside the simulator, only the session runs it
    assert [at for at in found["run_simulation("] if not at.startswith("sim/")] == [
        "api/session.py:_baseline", "api/session.py:execute",
    ]
    assert found["max(1.0,"] == ["api/specs.py:crashes"]
    assert found["state = FULFILLED"] == ["sim/task.py:fulfill"]
    # every digest from CPython's own hash modules, one owner each; no
    # module maps OpenSSL unless the interpreter lacks the built-in SHA-256
    assert {module: found.get(f"import {module}") for module in DIGEST_MODULES} == {
        "hashlib": ["util/jsonio.py:"],
        "_hashlib": None,
        "_sha2": ["util/jsonio.py:"],
        "_sha256": ["util/jsonio.py:"],
        "_blake2": ["util/rng.py:"],
    }
    # one reader of external JSON, which refuses a too-deep document
    assert found["json.load("] == ["util/jsonio.py:parse_json"]
    assert {name: found.get(name) for name in GONE_NAMES} == dict.fromkeys(GONE_NAMES)


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
        "def send_twice(node, msg, record, task):\n"
        "    node.machine.network.send(msg)\n"
        "    self.machine.network.send(msg)\n"
        "    node.queue.cancel(record.ack_timer)\n"
        "    self.queue.cancel(timer)\n"
        "    for p in self.policy.expand_spawn(node, task, record): pass\n"
        "    packets = node.policy.expand_spawn(node, task, record)\n"
        "    record.has_result = False\n"
        "    record.fulfilled_by = None\n"
        "    twin.has_result = record.has_result\n"
        "    record.fulfilled_by = msg.sender_instance\n"
        "    if msg.dst in node.known_dead:\n"
        "        node.policy.on_result_undeliverable(node, msg, msg.dst)\n"
        "    elif gp in self.known_dead and gp != node.id:\n"
        "        self.on_result_undeliverable(node, msg, gp)\n"
        "    if dead in self.known_dead:\n"
        "        return\n"
        "    self.machine.network.post(msg)\n"
        "    node.queue.schedule(1.0, msg)\n"
        "    record.state = SpawnState.FULFILLED\n"
        "    twin.state = _FULFILLED if done else SpawnState.PLACED\n"
        "    record.state = SpawnState.PLACED\n"
        "    result = run_simulation(workload, config)\n"
        "    handle = sim.run_simulation(workload)\n"
        "    at = max(1.0, frac * base)\n"
        "    at = max(1.0, when * makespan)\n"
        "    at = max(2.0, when) + max(1, n)\n"
        "import hashlib\n"
        "from hashlib import sha256\n"
        "import _sha2, _blake2\n"
        "from _sha2 import sha256\n"
        "from _blake2 import blake2b\n"
        "doc = json.load(fh)\n"
        "doc = _json.loads(text)\n"
        "doc = parse_json(text)\n"
        "def checkpointed(self):\n"
        "    return self.checkpoint_dest is not None\n"
    )
    assert {rule: len(at) for rule, at in rule_sites(twice).items()} == {
        "entry-loop": 2,
        "+= twins_created": 2,
        "emit task_aborted": 2,
        "loop in on_failure_detected": 2,
        "network.send(": 2,
        "queue.cancel(": 2,
        "expand_spawn(": 2,
        "write fulfilled_by": 2,
        "known_dead refusal": 2,
        "has_result": 3,
        "state = FULFILLED": 2,
        "run_simulation(": 2,
        "max(1.0,": 2,
        "import hashlib": 2,
        "import _sha2": 2,
        "import _blake2": 2,
        "json.load(": 2,
        "checkpointed": 1,
    }
    assert sorted(rule_sites(twice)["network.send("]) == [(12, "send_twice"), (13, "send_twice")]


# -- nothing the simulator keeps goes unread -------------------------------------

REPO = os.path.dirname(os.path.dirname(SRC))
#: Where state is declared: the simulator, its checkpoint core, the load
#: generator, the baseline and the machine configuration.
STATE_FILES = sorted(
    path
    for package in ("sim", "core", "load", "baselines")
    for path in glob.glob(os.path.join(SRC, package, "*.py"))
) + [os.path.join(SRC, "config.py")]
#: Where it may be read: the package, its tests and the benchmark.
READER_FILES = sorted(
    path
    for top in ("src", "tests", "bench")
    for path in glob.glob(os.path.join(REPO, top, "**", "*.py"), recursive=True)
)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "dataclass":
            return True
    return False


def _own_nodes(cls: ast.ClassDef):
    """Every node of ``cls``'s body, not descending into nested classes."""
    stack = [node for node in cls.body if not isinstance(node, ast.ClassDef)]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(c for c in ast.iter_child_nodes(node) if not isinstance(c, ast.ClassDef))


def kept_state(source: str) -> dict:
    """``{name: ["Class.name", ...]}`` for every dataclass field and
    every ``self.name =`` attribute a class in ``source`` keeps."""
    kept: dict = {}
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        if _is_dataclass(cls):
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    kept.setdefault(stmt.target.id, []).append(f"{cls.name}.{stmt.target.id}")
        for node in _own_nodes(cls):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target] if isinstance(node, ast.AnnAssign)
                else []
            )
            for target in targets:
                for t in ast.walk(target):
                    if (
                        isinstance(t, ast.Attribute)
                        and isinstance(t.value, ast.Name) and t.value.id == "self"
                    ):
                        kept.setdefault(t.attr, []).append(f"{cls.name}.{t.attr}")
    return kept


def read_names(source: str) -> set:
    """Every attribute ``source`` loads, as ``x.name`` or ``getattr(x, "name")``."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr" and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)
        ):
            read.add(node.args[1].value)
    return read


def _source(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def unread_state() -> list:
    read = set().union(*(read_names(_source(path)) for path in READER_FILES))
    kept: dict = {}
    for path in STATE_FILES:
        for name, owners in kept_state(_source(path)).items():
            kept.setdefault(name, set()).update(owners)
    return sorted(owner for name, owners in kept.items() if name not in read for owner in owners)


def test_the_dead_state_scan_covers_the_simulator():
    names = {os.path.relpath(path, SRC) for path in STATE_FILES}
    assert {"sim/node.py", "sim/metrics.py", "core/checkpoint.py", "load/generator.py",
            "baselines/periodic.py", "config.py"} <= names
    assert os.path.join(REPO, "bench", "benchlib", "kernels.py") in READER_FILES


def test_nothing_the_simulator_keeps_goes_unread():
    assert unread_state() == []


def test_the_dead_state_scan_sees_a_write_only_field():
    source = (
        "@dataclass(frozen=True)\n"
        "class Record:\n"
        "    read: int\n"
        "    never: int = 0\n"
        "class Table:\n"
        "    def __init__(self):\n"
        "        self.count = 0\n"
        "        self.peak, self.held = 0, 0\n"
        "    def bump(self):\n"
        "        self.count += 1\n"
        "        return getattr(self, 'held')\n"
        "class Outer:\n"
        "    class Inner:\n"
        "        def __init__(self):\n"
        "            self.inner_only = 1\n"
    )
    kept = kept_state(source)
    assert kept == {
        "read": ["Record.read"], "never": ["Record.never"], "count": ["Table.count"],
        "peak": ["Table.peak"], "held": ["Table.held"], "inner_only": ["Inner.inner_only"],
    }
    assert read_names(source) == {"held"}
    assert read_names("x = r.read + r.count\nr.never = 1\nr.peak += 1\n") == {"read", "count"}


# -- a run reads no environment ----------------------------------------------------

#: The ``os`` names that read the process environment.
ENV_READERS = ("environ", "environb", "getenv", "getenvb")


def environment_reads(source: str) -> list:
    """``(line, name)`` for every ``os.environ``/``os.getenv`` use and
    every ``from os import`` of one."""
    reads = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute) and node.attr in ENV_READERS
            and isinstance(node.value, ast.Name) and node.value.id == "os"
        ):
            reads.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads.extend(
                (node.lineno, f"os.{alias.name}")
                for alias in node.names if alias.name in ENV_READERS
            )
    return sorted(reads)


def test_the_package_reads_no_environment():
    found = {
        os.path.relpath(path, SRC): reads
        for path in ALL_FILES
        for reads in [environment_reads(_source(path))]
        if reads
    }
    assert found == {}


def test_the_environment_scan_sees_a_read():
    source = (
        "import os\n"
        "from os import getenv, path\n"
        "a = os.environ.get('X')\n"
        "b = os.getenv('Y', '1')\n"
        "c = os.path.join('p', 'q')\n"
    )
    assert environment_reads(source) == [
        (2, "os.getenv"), (3, "os.environ"), (4, "os.getenv"),
    ]


# -- a run reads its seed in two places ------------------------------------------------

#: The packages whose code runs inside a ``Machine``.
RUN_PACKAGES = ("sim", "core", "policies", "faults", "load", "workloads", "lang")
RUN_FILES = sorted(
    path for package in RUN_PACKAGES
    for path in glob.glob(os.path.join(SRC, package, "**", "*.py"), recursive=True)
)
#: Receivers whose ``spawn`` derives a hub from the root seed without a stream.
HUB_NAMES = ("rng", "hub", "_hub")


def seed_reads(source: str) -> list:
    """``(line, expression)`` for every read of a seed: an ``x.seed`` load,
    a ``getattr(x, "seed")`` and a hub's ``spawn``, which derives a child
    hub from the root seed without creating a stream."""
    reads = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute) and node.attr == "seed"
            and isinstance(node.ctx, ast.Load)
        ) or (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr" and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant) and node.args[1].value == "seed"
        ) or (
            isinstance(node, ast.Attribute) and node.attr == "spawn"
            and (
                (isinstance(node.value, ast.Name) and node.value.id in HUB_NAMES)
                or (isinstance(node.value, ast.Attribute) and node.value.attr in HUB_NAMES)
            )
        ):
            reads.append((node.lineno, ast.unparse(node)))
    return sorted(reads)


def test_a_run_reads_its_seed_only_in_the_hub_and_the_arrival_sampler():
    """``RunResult.seed_blind`` watches exactly these two: a run that
    creates no hub stream and arms no load generator never read its
    seed, so the sweep runner may answer its replicates from one run."""
    found = {
        os.path.relpath(path, SRC): [expr for _, expr in reads]
        for path in RUN_FILES
        for reads in [seed_reads(_source(path))]
        if reads
    }
    assert found == {
        os.path.join("sim", "machine.py"): ["config.seed"],
        os.path.join("load", "generator.py"): ["machine.config.seed"],
    }


def test_the_seed_scan_sees_a_read():
    source = (
        "a = machine.config.seed\n"
        "b = getattr(cfg, 'seed', 0)\n"
        "c = machine.rng.spawn('rep')\n"
        "d = self._hub.spawn('x')\n"
        "cfg.seed = 3\n"
        "e = tree.tree_seed + node.spawn(packet)\n"
    )
    assert seed_reads(source) == [
        (1, "machine.config.seed"), (2, "getattr(cfg, 'seed', 0)"),
        (3, "machine.rng.spawn"), (4, "self._hub.spawn"),
    ]
