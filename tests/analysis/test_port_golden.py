"""Parity of the figure drivers with their registered scenarios.

The table each figure renders through the scenario/RunSpec path (the
``figure`` point runner behind ``repro exp run figN-*``) must equal the
direct ``analysis.figures`` driver output, so the registry path and the
driver entry point can never drift.
"""

from __future__ import annotations

import pytest


class TestFigureScenarioParity:
    """Each figure's table through the scenario path equals the direct
    driver output — the registry entry *is* the figure driver."""

    @pytest.mark.parametrize(
        "scenario,figure",
        [
            ("fig1-fragmentation", "figure1"),
            ("fig2-grandparents", "figure2"),
            ("fig3-inheritance", "figure3"),
            ("fig5-cases", "figure5"),
            ("fig6-residue", "figure6"),
        ],
    )
    def test_scenario_table_equals_driver_table(self, scenario, figure):
        from repro.analysis import figures
        from repro.exp import run_scenario

        sweep = run_scenario(scenario, workers=1, cache_dir=None)
        (point,) = sweep.points
        report = figures.FIGURES[figure]()
        assert point["result"]["text"] == report.text
        assert point["result"]["ok"] is report.ok is True
        assert point["result"]["title"] == report.title
