"""Search-layer tests: seeded determinism and the ledger contract.

The acceptance bar for the searcher is reproducibility: the same
``(base spec, seed)`` must produce the byte-identical ledger — same
attempts, same violation, same minimal reproducer — on every run.  A
chaos-only search must find a violation on the smoke workload (the
notified one-sided drop regime), and a benign-model search must come
back clean with a well-formed ledger.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.api import Experiment, SpecError
from repro.check import (
    CHECK_SCHEMA,
    CheckConfig,
    ledger_path,
    search,
)
from repro.faults import GENERATABLE_MODELS
from repro.util.jsonio import canonical_dumps

BASE = (
    Experiment.workload("balanced:3:2:10").policy("rollback")
    .processors(4).seed(0).build()
)


def test_chaos_search_finds_and_shrinks_a_violation(tmp_path):
    result = search(BASE, seed=1, rounds=6, models=("chaos",), out_dir=str(tmp_path))
    assert result.found
    assert result.violation["violations"]  # at least one oracle named
    # the shrunk reproducer is itself still violating and no bigger
    assert result.minimal is not None
    assert len(result.minimal.clauses) <= 2


def test_same_seed_same_ledger_bytes(tmp_path):
    a = search(BASE, seed=1, rounds=6, models=("chaos",),
               out_dir=str(tmp_path / "a"))
    b = search(BASE, seed=1, rounds=6, models=("chaos",),
               out_dir=str(tmp_path / "b"))
    with open(a.path, encoding="utf-8") as fh:
        bytes_a = fh.read()
    with open(b.path, encoding="utf-8") as fh:
        bytes_b = fh.read()
    assert bytes_a == bytes_b
    assert a.violation["minimal"] == b.violation["minimal"]


def test_different_seeds_draw_different_schedules(tmp_path):
    a = search(BASE, seed=1, rounds=3, models=("chaos",), write=False)
    b = search(BASE, seed=2, rounds=3, models=("chaos",), write=False)
    assert [x["nemesis"] for x in a.attempts] != [x["nemesis"] for x in b.attempts]


def test_benign_models_come_back_clean(tmp_path):
    result = search(
        BASE, seed=3, rounds=3, models=("jitter",), out_dir=str(tmp_path)
    )
    assert not result.found and result.violation is None
    assert len(result.attempts) == 3
    assert all(a["status"] == "pass" for a in result.attempts)
    doc = json.load(open(result.path, encoding="utf-8"))
    assert doc["schema"] == CHECK_SCHEMA and doc["violation"] is None


def test_ledger_is_canonical_json_at_the_deterministic_path(tmp_path):
    result = search(
        BASE, seed=3, rounds=2, models=("jitter",), out_dir=str(tmp_path)
    )
    assert result.path == ledger_path(result.base, 3, str(tmp_path))
    with open(result.path, encoding="utf-8") as fh:
        text = fh.read()
    assert text == canonical_dumps(result.to_doc())
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["seed"] == 3 and doc["base"]["schema"].startswith("repro-runspec/")
    assert doc["check"] == CheckConfig().to_json()


def test_no_write_leaves_no_ledger(tmp_path):
    result = search(
        BASE, seed=3, rounds=2, models=("jitter",),
        out_dir=str(tmp_path), write=False,
    )
    assert result.path is None and not os.listdir(tmp_path)


def test_base_nemesis_is_cleared_before_searching():
    spec = (
        Experiment.workload("balanced:3:2:10").processors(4)
        .nemesis("jitter:max=25").build()
    )
    result = search(spec, seed=3, rounds=1, models=("jitter",), write=False)
    assert not result.base.nemesis.clauses


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"rounds": 0}, "check.rounds"),
        ({"rounds": -2}, "check.rounds"),
        ({"strategy": "coverage", "rounds": 0}, "check.rounds"),
        ({"rounds": 3, "max_clauses": 0}, "check.max_clauses"),
    ],
)
def test_an_empty_budget_is_rejected_before_anything_is_written(
    kwargs, field, tmp_path
):
    # a search that tries nothing would otherwise report "clean"
    with pytest.raises(SpecError) as excinfo:
        search(BASE, seed=3, models=("jitter",), out_dir=str(tmp_path), **kwargs)
    assert excinfo.value.field == field
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("models", [("crash", "bogus"), ("bogus",), ()])
def test_a_model_the_generator_cannot_draw_is_refused(models):
    # was: ("crash", "bogus") silently searched crash-only schedules and
    # ("bogus",) raised a bare ValueError from the generator
    with pytest.raises(SpecError) as excinfo:
        search(BASE, models=models, rounds=1, write=False)
    assert excinfo.value.field == "check.models"
    assert excinfo.value.allowed == GENERATABLE_MODELS
    assert ("bogus" in str(excinfo.value)) == ("bogus" in models)

