"""Intervals are bootstrapped when read — and only then.

``run_compare`` prints no per-cell interval, so it must perform no
per-cell median bootstrap; ``run_report`` prints each once (JSON) and
reads it again (Markdown), and must perform exactly one per interval.
Neither may move a byte: the digests below are of the payload's
canonical JSON and of the Markdown as the commit before this change
(PR 14, ``197684d``) emitted them, on ``smoke`` (no replicate spread:
every interval is exact) and on ``chaos-storm`` (45 of its 70
cell-metrics do vary at five replicates, so the resampling kernel runs).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.report import aggregate as aggregate_module
from repro.report.driver import run_compare, run_report
from repro.util.jsonio import canonical_dumps

PARENT = {
    "smoke": {
        "report": (
            "303f8801c09e6a6b1c1f172dbe11f3028b3e784d1f03a700d5ff51314bab0de4",
            "aff7812bb185278d53b272db8643a985035c728a0692bed6d5039cafe7f9ef01",
        ),
        "compare": (
            "d301c957ed5f8a10115688aa0341bc094ee4463c586575cf9ac4d68775a20b53",
            "cdfaefc3a0b82650e4d7ec1388e857c471701587a63e730caaae88020b9a7475",
        ),
    },
    "chaos-storm": {
        "report": (
            "031cc5f109e5e39cd3181b2bea1d4bf1b43d6694f7a64ad1fb5f2a3c24d9d0db",
            "8570bc9566cf85fe19b3c5f91337974cf2f477868cc0cb0a5ee307c2357aa7b4",
        ),
        "compare": (
            "d9153f1999f3baac508b9eeacff10bf1c7cb4f8350b32e128a20d6a876117e6a",
            "f158b8c2584081395e468c36cedb2c4f04592798d0ac318e6761f989ca44b9dd",
        ),
    },
}
REPLICATIONS = 5


def digests(result) -> tuple:
    return tuple(
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        for text in (canonical_dumps(result.payload), result.markdown)
    )


@pytest.fixture
def median_bootstraps(monkeypatch):
    """Every call the aggregation layer makes to ``bootstrap_median_ci``."""
    calls = []
    real = aggregate_module.bootstrap_median_ci

    def counted(samples, **kwargs):
        calls.append(samples)
        return real(samples, **kwargs)

    monkeypatch.setattr(aggregate_module, "bootstrap_median_ci", counted)
    return calls


@pytest.fixture(scope="module")
def cache(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("sweeps"))


@pytest.mark.parametrize("scenario", sorted(PARENT))
class TestBytesAndBootstrapCounts:
    def test_compare_bootstraps_no_cell_median(self, scenario, cache, median_bootstraps):
        result = run_compare(
            scenario, axis="policy", replications=REPLICATIONS,
            cache_dir=cache, out_dir=None,
        )
        assert digests(result) == PARENT[scenario]["compare"]
        assert median_bootstraps == []
        # the interval is still there for whoever asks, at the cost of one
        summary = result.aggregates[0].cells[0].metrics["makespan"]
        assert summary.ci_low <= summary.median <= summary.ci_high
        assert len(median_bootstraps) == 1

    def test_report_bootstraps_each_printed_interval_once(
        self, scenario, cache, median_bootstraps
    ):
        result = run_report(
            scenario, replications=REPLICATIONS, cache_dir=cache, out_dir=None
        )
        assert digests(result) == PARENT[scenario]["report"]
        printed = sum(len(cell["metrics"]) for cell in result.payload["cells"])
        assert printed > 0 and len(median_bootstraps) == printed


def test_the_varying_scenario_does_vary(cache):
    result = run_report(
        "chaos-storm", replications=REPLICATIONS, cache_dir=cache, out_dir=None
    )
    assert any(
        min(values) != max(values)
        for cell in result.payload["cells"]
        for values in cell["samples"].values()
    )
