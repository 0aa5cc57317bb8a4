#!/usr/bin/env python3
"""A small study: recovery cost vs fault time across policies.

Prints the two series behind the paper's §6 claims from their registered
scenarios: fault-free overhead by policy (functional checkpointing is
cheap) and recovery cost as the fault time sweeps over the program's
lifetime — rollback grows costly for late faults, splice flattens the
curve by salvaging, replication pays up front.  Every point is one
canonical ``repro.api`` RunSpec, so these numbers are byte-identical to
what `python -m repro exp run NAME` caches.

For the same series with replicate statistics (median/IQR/bootstrap
CIs), see `python -m repro report run rollback-vs-splice
--replications 5` and docs/REPORTS.md.

    python examples/fault_sweep_study.py
"""

from repro.exp import run_scenario, sweep_table


def main() -> None:
    for name in ("overhead-faultfree", "rollback-vs-splice"):
        print(sweep_table(run_scenario(name)))
        print()


if __name__ == "__main__":
    main()
