"""Acceptance pins for the coverage-guided searcher.

One pinned configuration — ``balanced:3:2:10`` under rollback, the
``chaos``/``grayfail`` model pool, seed 1, a 12-round budget — where
coverage guidance demonstrably pays for itself against a full-budget
random baseline drawn from the *same* seeded generator:

* strictly more distinct :class:`CoverageSignature`s reached;
* a minimal violating reproducer the random baseline never finds;
* in maximize mode, a worse bounded-recovery margin than any random
  draw surfaces.

All of it byte-deterministic, so these are regressions, not luck.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from dataclasses import replace

from repro.api import Experiment
from repro.check import (
    CHECK_SCHEMA,
    CheckConfig,
    Evaluator,
    ledger_path,
    search,
    shrink,
)
from repro.cli import main
from repro.errors import SpecError
from repro.faults.generate import random_nemesis

BASE = (
    Experiment.workload("balanced:3:2:10").policy("rollback")
    .processors(4).seed(0).build()
)
MODELS = ("chaos", "grayfail")
SEED = 1
BUDGET = 12


def _random_baseline():
    """Full-budget random draws: signature keys, margins, minimals.

    The plain ``strategy="random"`` searcher stops at the first
    violation (its historical contract), so the fair baseline draws the
    *entire* budget from the same seeded generator and shrinks every
    violation it hits.
    """
    rng = random.Random(SEED)
    evaluator = Evaluator(BASE, CheckConfig())
    keys, margins, minimals = set(), [0.0], set()
    for _ in range(BUDGET):
        nemesis = random_nemesis(rng, 4, models=MODELS, max_clauses=2)
        ev = evaluator.evaluate(nemesis)
        keys.add(ev.signature.key())
        margins.append(ev.margin)
        if ev.report.violations:
            minimal, _ = shrink(BASE, nemesis, evaluator=evaluator)
            minimals.add(minimal.to_spec_str())
    return keys, max(margins), minimals


def _coverage(mode="violation", **kw):
    return search(
        BASE, seed=SEED, rounds=BUDGET, strategy="coverage",
        models=MODELS, mode=mode, write=False, **kw,
    )


class TestCoverageBeatsRandomOnThePinnedBudget:
    def test_strictly_more_distinct_signatures(self):
        rand_keys, _, _ = _random_baseline()
        cov = _coverage()
        cov_keys = [entry["key"] for entry in cov.corpus]
        assert len(cov_keys) > len(rand_keys)
        # the corpus is exactly the novel-signature schedules
        assert len(set(cov_keys)) == len(cov.corpus)

    def test_finds_a_violating_reproducer_random_misses(self):
        _, _, rand_minimals = _random_baseline()
        cov = _coverage()
        cov_minimals = {v["minimal"] for v in cov.violations}
        assert cov_minimals - rand_minimals
        # and every one of them still names its violated oracles
        assert all(v["minimal_violations"] for v in cov.violations)

    def test_maximize_surfaces_worse_margin_than_any_random_draw(self):
        _, rand_worst, _ = _random_baseline()
        mx = _coverage(mode="maximize")
        assert mx.worst is not None
        assert mx.worst["margin"] > rand_worst

    def test_mutation_rounds_actually_fire(self):
        cov = _coverage()
        origins = {a["origin"] for a in cov.attempts}
        assert origins == {"random", "mutate"}
        # every mutate attempt names its corpus parent
        for a in cov.attempts:
            if a["origin"] == "mutate":
                assert a["parent"] is not None
                assert 0 <= a["parent"] < len(cov.corpus)


class TestCoverageLedger:
    def test_same_seed_same_ledger_bytes(self, tmp_path):
        a = search(BASE, seed=SEED, rounds=BUDGET, strategy="coverage",
                   models=MODELS, out_dir=str(tmp_path / "a"))
        b = search(BASE, seed=SEED, rounds=BUDGET, strategy="coverage",
                   models=MODELS, out_dir=str(tmp_path / "b"))
        bytes_a = open(a.path, encoding="utf-8").read()
        bytes_b = open(b.path, encoding="utf-8").read()
        assert bytes_a == bytes_b

    def test_a_24_round_document_is_pinned(self, tmp_path):
        # recorded before the oracles, the signature and the margin were
        # read off one CheckContext.recovery view; any drift in a window,
        # a reason or a false positive moves a signature key and this hash.
        # The base spec runs on simulation seed 3, as the document recorded.
        base = replace(BASE, seed=3)
        search(base, seed=3, rounds=24, strategy="coverage", out_dir=str(tmp_path))
        [path] = tmp_path.iterdir()
        assert path.name == "search-seed3-coverage-030813a956.json"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "c8305de065475d994328bdb81eb847b67e4f3f2a99d60a5b2aef62524a12bc48"
        )

    def test_the_cli_writes_the_documents_search_writes(self, tmp_path):
        # check search passes --policy, --processors, --seed, --strategy,
        # --rounds and --out-dir through to search() unchanged; its own
        # --seed seeds the generator only, so the base spec keeps seed 0
        argv = [
            "check", "search", "balanced:3:2:10", "--policy", "rollback",
            "--processors", "4", "--seed", "3", "--strategy", "coverage",
            "--rounds", "24", "--out-dir", str(tmp_path / "cli"),
        ]
        assert main(argv, out=io.StringIO()) == 0
        api = search(BASE, seed=3, rounds=24, strategy="coverage",
                     out_dir=str(tmp_path / "api"))
        [path] = (tmp_path / "cli").iterdir()
        assert path.name == os.path.basename(api.path)
        assert path.read_bytes() == open(api.path, "rb").read()

    def test_schema_2_document_shape(self, tmp_path):
        result = search(BASE, seed=SEED, rounds=BUDGET, strategy="coverage",
                        models=MODELS, out_dir=str(tmp_path))
        doc = json.load(open(result.path, encoding="utf-8"))
        assert doc["schema"] == CHECK_SCHEMA == "repro-check/2"
        assert doc["strategy"] == "coverage"
        assert doc["mode"] == "violation"
        assert doc["rounds"] == BUDGET
        assert doc["simulations"] == result.simulations > 0
        assert len(doc["corpus"]) == len(result.corpus)
        assert len(doc["violations"]) == len(result.violations)
        # lineage: every attempt records origin/parent/signature/novel
        for a in doc["attempts"]:
            assert {"origin", "parent", "signature", "novel", "cached"} <= set(a)
        # the compat field: first shrunk violation, as in repro-check/1
        assert doc["violation"] == doc["violations"][0]

    def test_ledger_path_folds_config_strategy_and_mode(self, tmp_path):
        plain = ledger_path(BASE, SEED, str(tmp_path))
        tight = ledger_path(
            BASE, SEED, str(tmp_path),
            config=CheckConfig(horizon_frac=0.5),
        )
        coverage = ledger_path(BASE, SEED, str(tmp_path), strategy="coverage")
        maximize = ledger_path(
            BASE, SEED, str(tmp_path), strategy="coverage", mode="maximize"
        )
        assert len({plain, tight, coverage, maximize}) == 4
        assert f"search-seed{SEED}-coverage-" in coverage
        # default config hashes like an explicit default config
        assert plain == ledger_path(
            BASE, SEED, str(tmp_path), config=CheckConfig()
        )


class TestMemoizedEvaluation:
    def test_evaluator_never_resimulates_a_schedule(self):
        evaluator = Evaluator(BASE, CheckConfig())
        nemesis = random_nemesis(random.Random(0), 4, models=("jitter",))
        first = evaluator.evaluate(nemesis)
        second = evaluator.evaluate(nemesis)
        assert not first.cached and second.cached
        assert evaluator.simulations == 1 and evaluator.hits == 1
        assert first.report is second.report

    def test_shrink_shares_the_evaluator_memo(self):
        cov = _coverage()
        violating = cov.violations[0]["nemesis"]
        evaluator = Evaluator(BASE, CheckConfig())
        from repro.api.specs import NemesisSpec

        nemesis = NemesisSpec.parse(violating)
        minimal_a, _ = shrink(BASE, nemesis, evaluator=evaluator)
        after_first = evaluator.simulations
        minimal_b, _ = shrink(BASE, nemesis, evaluator=evaluator)
        # the re-shrink walks the identical candidate chain: all memo hits
        assert evaluator.simulations == after_first
        assert minimal_a.to_spec_str() == minimal_b.to_spec_str()
        assert minimal_a.to_spec_str() == cov.violations[0]["minimal"]


class TestStrategyValidation:
    def test_unknown_strategy_is_a_spec_error(self):
        try:
            search(BASE, seed=1, rounds=1, strategy="anneal", write=False)
        except SpecError as exc:
            assert "anneal" in str(exc)
        else:
            raise AssertionError("expected SpecError")

    def test_unknown_mode_is_a_spec_error(self):
        try:
            search(BASE, seed=1, rounds=1, mode="minimize", write=False)
        except SpecError as exc:
            assert "minimize" in str(exc)
        else:
            raise AssertionError("expected SpecError")
