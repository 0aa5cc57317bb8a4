"""Memory budgets of the sweep's cache write and of ``list_runs``.

A sweep holds no document it only passes through: the cache is streamed
to disk in bounded batches instead of being rendered whole, and a
listing keeps no result payloads.  Both are measured with
``tracemalloc``, which counts Python allocations deterministically, on
the 400-point ``smoke`` x 100 sweep the ``sweep-session`` benchmark
runs.  Both budgets fail when the document is rendered in memory (about
5 MiB transient) or every finished result is kept (about 2.6 MiB
retained).
"""

from __future__ import annotations

import os
import tracemalloc

from repro.exp import expand, get_scenario, list_runs, replay_ledger, with_replications
from repro.exp.runner import _assemble, result_path

MiB = 1 << 20


def _traced(fn):
    """``fn()``, with the bytes it left allocated and its peak above its start."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        out = fn()
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, end - start, peak - start


def test_cache_write_adds_under_1_mib_to_the_assembled_sweep(big_sweep, tmp_path):
    spec = with_replications(get_scenario("smoke"), 100)
    points = expand(spec)
    results = {entry["index"]: entry["result"] for entry in big_sweep.points}
    path = result_path(str(tmp_path), spec.name, spec.key())
    sweep, retained, peak = _traced(lambda: _assemble(spec, points, results, path))
    # ``retained`` is the assembled sweep the result keeps; the write
    # itself may add no more than 1 MiB on top of it
    assert peak - retained < MiB, (retained, peak)
    with open(path, "rb") as fh:
        assert fh.read() == sweep.to_json().encode("utf-8")


def test_list_runs_retains_under_0_1_mib(big_sweep):
    ledgers = os.path.dirname(big_sweep.ledger_path)
    list_runs(ledgers)  # one-time interpreter caches stay out of the count
    states, retained, _ = _traced(lambda: list_runs(ledgers))
    assert [state.run_id for state in states] == [big_sweep.run_id]
    assert states[0].complete and states[0].run_finished
    assert retained < 0.1 * MiB, retained


def test_listed_state_keeps_only_what_a_listing_reads(big_sweep):
    [listed] = list_runs(os.path.dirname(big_sweep.ledger_path))
    full = replay_ledger(big_sweep.ledger_path)
    assert listed.results == {} and listed.points == []
    assert len(full.results) == len(full.points) == 400
    assert listed.finished == full.finished == frozenset(range(400))
    assert listed.summary_doc() == full.summary_doc()
    assert listed.sweep_sha256 == full.sweep_sha256
