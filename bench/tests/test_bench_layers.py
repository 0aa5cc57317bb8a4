"""Every source file has a layer, and builtin time lands on its caller's layer."""

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

from benchlib import layers, names  # noqa: E402

SRC = os.path.join(os.path.dirname(BENCH), "src", "repro")


def test_every_source_file_has_a_layer():
    unmapped = []
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                rel = os.path.relpath(os.path.join(folder, name), SRC)
                if layers.layer_of_source(rel) not in names.LAYERS:
                    unmapped.append(rel)
    assert not unmapped, f"give these modules a layer in bench/benchlib/layers.py: {unmapped}"


def test_a_new_core_module_has_no_layer():
    assert layers.layer_of_source("sim/brand_new.py") is None
    assert layers.layer_of_source("brand_new.py") is None
    assert layers.layer_of_source("report/brand_new.py") == "report"


def test_builtin_time_goes_to_the_calling_layer():
    events = (os.path.join(SRC, "sim", "events.py"), 70, "schedule")
    runner = (os.path.join(SRC, "exp", "runner.py"), 10, "run_scenario")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    encode = ("~", 0, "<built-in method _json.encode_basestring_ascii>")
    stats = {
        events: (5, 5, 1.0, 3.0, {}),
        runner: (1, 1, 0.5, 9.0, {}),
        heappush: (7, 7, 2.0, 2.0, {events: (4, 4, 1.5, 1.5), runner: (2, 2, 0.25, 0.25)}),
        encode: (3, 3, 0.125, 0.125, {runner: (3, 3, 0.125, 0.125)}),
    }
    rows = layers.attribute(stats, SRC)
    assert rows["sim.events"] == {"self_s": 2.5, "calls": 9}
    assert rows["exp.runner"] == {"self_s": 0.75, "calls": 3}
    assert rows["util.jsonio"] == {"self_s": 0.125, "calls": 3}
    # heappush's remaining call came from outside the profile.
    assert rows["other"] == {"self_s": 0.25, "calls": 1}
    assert sum(r["self_s"] for r in rows.values()) == sum(s[2] for s in stats.values())
