"""Hostile JSON never escapes a loader as a traceback.

Every document that comes from outside the process — a ``--spec-json``
file, a corpus, a sweep-ledger line, a cached sweep — is parsed by
:func:`repro.util.jsonio.parse_json`, which turns a document nested past
the recursion limit into the ``ValueError`` any other syntax error
raises.  Each loader then keeps its own answer: the corpus and
``--spec-json`` refuse with a one-line spec error (exit 2), the ledger
reports the line as corrupt (or its torn tail), and the cache misses.
Invalid UTF-8 takes the same paths.

The last two tests are Hypothesis properties over *mutated valid*
documents — a key deleted or a value replaced anywhere in a real corpus
or a real cached sweep — so the shape checks are judged by a tool, not
only by the probes someone thought of.
"""

from __future__ import annotations

import copy
import io
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check.corpus import load_corpus
from repro.cli import main
from repro.errors import ReproError, SpecError
from repro.exp import (
    LedgerWarning, LedgerWriter, get_scenario, list_runs, replay_ledger, run_scenario,
)
from repro.exp.runner import SweepResult, _load_cached, sweep_table
from repro.report import aggregate_sweep
from repro.util.jsonio import parse_json

HOSTILE = {
    "deep": b"[" * 100_000,
    "bad-utf8": b'{"schema": "\xff\xfe"}',
}


def run_cli(*argv):
    out = io.StringIO()
    return main(list(argv), out=out), out.getvalue()


@pytest.fixture(params=sorted(HOSTILE))
def hostile(request, tmp_path):
    path = tmp_path / f"{request.param}.json"
    path.write_bytes(HOSTILE[request.param])
    return path


def test_a_too_deep_document_is_a_value_error():
    with pytest.raises(ValueError, match="nested too deeply"):
        parse_json("[" * 100_000)
    assert parse_json("[[[]]]") == [[[]]]


@pytest.mark.parametrize(
    "argv",
    [("check", "corpus", "run"), ("run", "--spec-json")],
    ids=["corpus", "spec-json"],
)
def test_the_cli_refuses_in_one_line(argv, hostile, capsys):
    code, out = run_cli(*argv, str(hostile))
    assert code == 2 and out == ""
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: cannot read")


def _ledger(tmp_path, tail: bytes) -> str:
    with LedgerWriter.start(str(tmp_path / "ledger"), get_scenario("smoke")) as writer:
        path = writer.path
    with open(path, "ab") as fh:
        fh.write(tail)
    return path


def test_a_hostile_ledger_line_is_corrupt(hostile, tmp_path):
    path = _ledger(tmp_path, hostile.read_bytes() + b'\n{"event":"point_started","index":0}\n')
    with pytest.raises(ReproError, match="corrupt at line 2"):
        replay_ledger(path)
    # so ``repro exp runs`` skips the file instead of crashing
    with pytest.warns(LedgerWarning, match="unusable"):
        assert list_runs(str(tmp_path / "ledger")) == []


def test_a_hostile_final_ledger_line_is_a_torn_tail(hostile, tmp_path):
    path = _ledger(tmp_path, hostile.read_bytes() + b"\n")
    with pytest.warns(LedgerWarning, match="torn final line"):
        state = replay_ledger(path)
    assert state.torn_lines == 1 and state.scenario == "smoke"


def test_a_hostile_cache_file_is_a_miss(hostile):
    assert _load_cached(str(hostile), get_scenario("smoke")) is None


# -- mutated valid documents ---------------------------------------------------

CORPUS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "baselines", "corpus", "rollback-chaos-wide.json",
)
#: Any JSON value, NaN and the infinities included (``json`` writes them).
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _slots(node):
    """``(holder, key)`` for every value nested anywhere in ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield node, key
        yield from _slots(value)


@st.composite
def mutated(draw, doc):
    """``doc`` with one to three edits, each at a value drawn from all of
    the document's: that key or list item deleted, or replaced by any
    JSON value."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            return draw(JSON_VALUES)
        holder, key = draw(st.sampled_from(slots))
        if draw(st.booleans()):
            del holder[key]
        else:
            holder[key] = draw(JSON_VALUES)
    return doc


@pytest.fixture(scope="module")
def smoke_payload():
    return run_scenario("smoke").payload()


@pytest.fixture(scope="module")
def corpus_doc():
    with open(CORPUS, "r", encoding="utf-8") as fh:
        return json.load(fh)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_mutated_cache_is_a_miss_or_a_readable_hit(data, smoke_payload, tmp_path):
    spec = get_scenario("smoke")
    path = tmp_path / "cache.json"
    path.write_text(json.dumps(data.draw(mutated(smoke_payload))))
    payload = _load_cached(str(path), spec)
    if payload is not None:
        sweep = SweepResult(spec.name, spec.key(), points=payload["points"], cache_hit=True)
        sweep_table(sweep, spec)
        aggregate_sweep(sweep, spec)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_mutated_corpus_loads_or_is_a_spec_error(data, corpus_doc, tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(data.draw(mutated(corpus_doc))))
    try:
        assert isinstance(load_corpus(str(path)), dict)
    except SpecError:
        pass
