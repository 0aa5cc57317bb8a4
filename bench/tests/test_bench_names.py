"""The names ``bench/run.py`` emits are the names ``BENCHMARK.json`` declares."""

import json
import os
import re
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _listed():
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--list"],
        capture_output=True, text=True, check=True,
    ).stdout
    rows = {"workload": [], "end_to_end": [], "per_layer": []}
    for line in out.splitlines():
        kind, *fields = line.split("\t")
        rows[kind].append(fields)
    return rows


def test_list_matches_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    listed = _listed()
    assert [[w["name"], w["why"]] for w in manifest["workloads"]] == listed["workload"]
    assert [
        [m["name"], m["unit"], m["better"]] for m in manifest["end_to_end"]
    ] == listed["end_to_end"]
    assert [
        [m["name"], m["unit"], m["better"]] for m in manifest["per_layer"]
    ] == listed["per_layer"]
    assert manifest["paths"] == ["bench"]
    assert manifest["command"] == ["python3", "bench/run.py"]


def test_names_are_well_formed_and_unique():
    listed = _listed()
    every = [fields[0] for rows in listed.values() for fields in rows]
    assert len(every) == len(set(every))
    assert len(listed["per_layer"]) <= 128
    for name in every:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for fields in listed["end_to_end"] + listed["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", fields[1]), fields
        assert fields[2] in ("lower", "higher")
    assert "setup_s" in [fields[0] for fields in listed["end_to_end"]]
