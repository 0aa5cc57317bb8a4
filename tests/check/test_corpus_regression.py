"""The pinned reproducer corpus is a permanent regression gate.

``tests/baselines/corpus/`` holds the minimal reproducers that coverage
searches shrank out of the chaos-prone rollback workloads, each with
its full verdict status map at recording time.  Replaying them must
come back clean: every recorded oracle still violates, every verdict
status still matches.  A recovery-policy change that silently fixes —
or worsens — one of these regimes trips this suite, which is the point.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.check import (
    CORPUS_SCHEMA,
    load_corpus,
    run_corpus,
)
from repro.check.corpus import corpus_files
from repro.errors import SpecError

CORPUS_DIR = os.path.join(
    os.path.dirname(__file__), "..", "baselines", "corpus"
)


def test_the_checked_in_corpus_still_reproduces():
    report = run_corpus(CORPUS_DIR)
    assert len(report.entries) >= 3
    assert report.ok, report.summary()
    # every entry pinned the one-sided weak-recovery regime end to end
    for entry in report.entries:
        assert "weak-recovery" in entry.expected
        assert not entry.missing and not entry.drifted


def test_corpus_documents_are_schema_checked():
    for path in corpus_files(CORPUS_DIR):
        doc = load_corpus(path)
        assert doc["schema"] == CORPUS_SCHEMA
        assert doc["strategy"] == "coverage"
        assert doc["entries"], path
        for entry in doc["entries"]:
            assert entry["violations"], entry["nemesis"]
            assert set(entry["violations"]) <= set(entry["statuses"])
            assert entry["signature"]["completed"] is False


def test_a_drifted_status_trips_the_gate(tmp_path):
    [first] = corpus_files(CORPUS_DIR)[:1]
    doc = load_corpus(first)
    # tamper one pinned verdict: the replay must flag the drift
    entry = doc["entries"][0]
    oracle = entry["violations"][0]
    entry["statuses"][oracle] = "pass"
    entry["violations"] = [
        o for o in entry["violations"] if o != oracle
    ] or entry["violations"]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc), encoding="utf-8")
    report = run_corpus(str(tampered))
    assert not report.ok
    drifted = dict(report.failed[0].drifted)
    assert oracle in drifted
    assert drifted[oracle] == ("pass", "violation")


def test_a_missing_violation_trips_the_gate(tmp_path):
    [first] = corpus_files(CORPUS_DIR)[:1]
    doc = load_corpus(first)
    # pin a benign schedule as "violating": replay must report it missing
    entry = dict(doc["entries"][0])
    entry["nemesis"] = "jitter:max=10"
    entry["statuses"] = {oracle: "violation" for oracle in entry["violations"]}
    doc["entries"] = [entry]
    tampered = tmp_path / "benign.json"
    tampered.write_text(json.dumps(doc), encoding="utf-8")
    report = run_corpus(str(tampered))
    assert not report.ok
    assert report.failed[0].missing == tuple(entry["violations"])


def _without_base(doc):
    del doc["base"]


def _entry_without_nemesis(doc):
    del doc["entries"][0]["nemesis"]


def _entries_as_an_object(doc):
    doc["entries"] = {"0": doc["entries"][0]}


def _statuses_as_a_list(doc):
    doc["entries"][0]["statuses"] = [1]


def _pins_nothing(doc):
    # replayed, this entry could only come back ok
    doc["entries"][0] = {"nemesis": ""}


def _violations_emptied(doc):
    doc["entries"][0]["violations"] = []


def _violation_not_an_oracle(doc):
    doc["entries"][0]["violations"].append("no-such-oracle")


def _violation_pinned_as_pass(doc):
    doc["entries"][0]["statuses"]["result-agreement"] = "pass"


def _violation_not_pinned(doc):
    del doc["entries"][0]["statuses"]["weak-recovery"]


@pytest.mark.parametrize(
    "tamper, field",
    [
        (_without_base, "corpus.base"),
        (_entry_without_nemesis, "corpus.entries[0].nemesis"),
        (_entries_as_an_object, "corpus.entries"),
        (_statuses_as_a_list, "corpus.entries[0].statuses"),
        (_pins_nothing, "corpus.entries[0].violations"),
        (_violations_emptied, "corpus.entries[0].violations"),
        (_violation_not_an_oracle, "corpus.entries[0].violations"),
        (_violation_pinned_as_pass, "corpus.entries[0].violations"),
        (_violation_not_pinned, "corpus.entries[0].violations"),
    ],
)
def test_a_misshapen_document_is_one_spec_error(tmp_path, capsys, tamper, field):
    from repro.cli import main

    doc = load_corpus(corpus_files(CORPUS_DIR)[0])
    tamper(doc)
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SpecError) as caught:
        load_corpus(str(path))
    assert caught.value.field == field
    # and through the CLI: exit 2 with one error line, before anything runs
    assert main(["check", "corpus", "run", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: corpus ") and field[7:] in err[0]


def test_unreadable_or_wrong_schema_is_a_spec_error(tmp_path):
    with pytest.raises(SpecError):
        run_corpus(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "repro-check/2"}', encoding="utf-8")
    with pytest.raises(SpecError):
        run_corpus(str(bad))
    with pytest.raises(SpecError):
        run_corpus(str(tmp_path))  # empty directory
