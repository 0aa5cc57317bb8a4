"""Hostile JSON never escapes a loader as a traceback.

Every document that comes from outside the process — a ``--spec-json``
file, a corpus, a sweep-ledger line, a cached sweep — is parsed by
:func:`repro.util.jsonio.parse_json`, which turns a document nested past
the recursion limit into the ``ValueError`` any other syntax error
raises.  Each loader then keeps its own answer: the corpus and
``--spec-json`` refuse with a one-line spec error (exit 2), the ledger
reports the line as corrupt (or its torn tail), and the cache misses.
Invalid UTF-8 takes the same paths.
"""

from __future__ import annotations

import io

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.exp import LedgerWarning, LedgerWriter, get_scenario, list_runs, replay_ledger
from repro.exp.runner import _load_cached
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
