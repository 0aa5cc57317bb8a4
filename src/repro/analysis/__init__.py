"""Figure reproductions and the drivers behind them.

:mod:`~repro.analysis.figures` reproduces the paper's figures,
:mod:`~repro.analysis.cases_driver` steers the simulator into the §4
cases and :mod:`~repro.analysis.residue` measures the Figure 6 states.
Parameter sweeps are registered scenarios in :mod:`repro.exp`
(``overhead-faultfree``, ``rollback-vs-splice``, ``scaling-wide``,
``multi-fault``); statistical aggregation of *replicated* sweeps lives
in :mod:`repro.report`.
"""
