"""The compare rule: better / within bound / worse / unresolved."""

import importlib.util
import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

from benchlib import names  # noqa: E402
from benchlib.verdict import BETTER, UNRESOLVED, WITHIN, WORSE, judge, quartile_spread  # noqa: E402


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TIGHT = [1.00, 1.01, 0.99, 1.00, 1.02]


def test_lower_is_better_verdicts():
    assert judge("lower", 0.10, 1.0, 1.05, TIGHT, [x * 1.05 for x in TIGHT])[0] == WITHIN
    assert judge("lower", 0.10, 1.0, 1.20, TIGHT, [x * 1.20 for x in TIGHT])[0] == WORSE
    assert judge("lower", 0.10, 1.0, 0.80, TIGHT, [x * 0.80 for x in TIGHT])[0] == BETTER


def test_higher_is_better_flips_the_sign():
    verdict, change = judge("higher", 0.10, 1.0, 0.80)
    assert (verdict, round(change, 6)) == (WORSE, 0.2)
    assert judge("higher", 0.10, 1.0, 1.30)[0] == BETTER


def test_wide_overlapping_runs_are_unresolved_not_unchanged():
    wide = [0.7, 0.9, 1.0, 1.2, 1.4]
    assert quartile_spread(wide) > 0.10
    assert judge("lower", 0.10, 1.0, 1.02, wide, [x * 1.02 for x in wide])[0] == UNRESOLVED
    # Wide but disjoint: every new run beats every base run, so it resolves.
    assert judge("lower", 0.10, 1.0, 0.4, wide, [x * 0.4 for x in wide])[0] == BETTER


def test_bound_zero_means_exactly_equal():
    assert judge("lower", 0.0, 2.5, 2.5)[0] == WITHIN
    assert judge("lower", 0.0, 2.5, 2.5000001)[0] == WORSE
    assert judge("lower", 0.0, 0.0, 0.01)[0] == WORSE  # fail_ratio leaving zero


def _result(seed, rep_s, useful=0.5, failures=()):
    entry = {
        "attempted": 10,
        "failures": list(failures),
        "values": {
            "setup_s": 0.5, "rep_s": rep_s, "peak_rss_mb": 90.0,
            "sim_useful_ratio": useful, "sim_msgs_per_task": 2.5,
        },
        "samples": {"setup_s": [0.5] * 3, "rep_s": [rep_s * x for x in TIGHT], "peak_rss_mb": [90.0] * 3},
    }
    return {"seed": seed, "end_to_end": {names.WORKLOAD_NAMES[0]: entry}}


def test_compare_rows_and_exit_code(tmp_path, capsys):
    compare = _load("compare")
    bounds = {name: 0.10 for name, _, _ in names.END_TO_END}
    rows = compare.compare(_result(0, 2.0), _result(0, 2.5, useful=0.5000001), bounds)
    verdicts = {row[1]: row[-1] for row in rows}
    assert verdicts["rep_s"] == WORSE
    assert verdicts["setup_s"] == WITHIN
    assert verdicts["sim_useful_ratio"] == BETTER  # same seed: exact, and it moved
    assert verdicts["fail_ratio"] == WITHIN
    # Different seeds: the simulated statistics fall back to their bound.
    rows = compare.compare(_result(0, 2.0), _result(1, 2.0, useful=0.5000001), bounds)
    assert {row[1]: row[-1] for row in rows}["sim_useful_ratio"] == WITHIN
    # A new failure is a regression whatever the timings say.
    rows = compare.compare(_result(0, 2.0), _result(0, 2.0, failures=["boom"]), bounds)
    assert {row[1]: row[-1] for row in rows}["fail_ratio"] == WORSE

    import json

    for name, doc in (("a", _result(0, 2.0)), ("b", _result(0, 3.0))):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "a.json")]) == 0
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1
    assert "worse" in capsys.readouterr().out
