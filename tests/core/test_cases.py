"""Tests for the Figure-5 case classification and drivers (§4.1)."""

from __future__ import annotations

import pytest

from repro.analysis.cases_driver import CASE_DRIVERS
from repro.core.cases import CaseTimeline, classify


class TestClassify:
    def _t(self, **kw):
        base = dict(
            p_failed=100.0,
            p_twin_invoked=150.0,
            p_twin_completed=400.0,
            c_invoked=50.0,
            c_completed=None,
            c_twin_invoked=200.0,
            c_twin_completed=300.0,
        )
        base.update(kw)
        return CaseTimeline(**base)

    def test_case1_never_invoked(self):
        assert classify(self._t(c_invoked=None, c_completed=None)) == 1

    def test_case2_never_completes(self):
        assert classify(self._t(c_completed=None)) == 2

    def test_case3_before_p_dies(self):
        assert classify(self._t(c_completed=90.0)) == 3

    def test_case4_before_twin_invoked(self):
        assert classify(self._t(c_completed=120.0)) == 4

    def test_case4_twin_never_invoked(self):
        assert classify(self._t(c_completed=120.0, p_twin_invoked=None,
                                p_twin_completed=None, c_twin_invoked=None,
                                c_twin_completed=None)) == 4

    def test_case5_before_c_twin_invoked(self):
        assert classify(self._t(c_completed=180.0)) == 5

    def test_case5_c_twin_never_invoked(self):
        assert classify(self._t(c_completed=180.0, c_twin_invoked=None,
                                c_twin_completed=None)) == 5

    def test_case6_during_c_twin(self):
        assert classify(self._t(c_completed=250.0)) == 6

    def test_case7_after_c_twin_completed(self):
        assert classify(self._t(c_completed=350.0)) == 7

    def test_case8_after_p_twin_completed(self):
        assert classify(self._t(c_completed=450.0)) == 8


@pytest.mark.parametrize("case", sorted(CASE_DRIVERS))
def test_driver_reaches_its_case(case):
    """Each driver steers the simulator into its intended ordering, and
    the run stays correct — the executable form of §4.1's argument."""
    outcome = CASE_DRIVERS[case]()
    assert outcome.observed_case == case, (
        f"expected case {case}, observed {outcome.observed_case}"
    )
    assert outcome.result.completed, outcome.result.stall_reason
    assert outcome.result.verified is True


def test_salvage_cases_consume_orphan_result():
    """Cases 3-7 involve an orphan result reaching the twin."""
    for case in (4, 5, 6):
        outcome = CASE_DRIVERS[case]()
        assert outcome.result.metrics.results_salvaged >= 1


def test_case7_sees_duplicate():
    outcome = CASE_DRIVERS[7]()
    assert outcome.result.metrics.results_duplicate >= 1


def test_case8_discards_late_result():
    outcome = CASE_DRIVERS[8]()
    assert outcome.result.metrics.results_ignored >= 1
