"""Run the ``repro`` CLI with a sweep-ledger writer that crashes on cue.

    python tests/exp/crash_harness.py [--crash-after N] [--slow S] -- ARGS...

runs ``repro ARGS...`` in this process with
:meth:`repro.exp.ledger.LedgerWriter.append` wrapped.  After ``N``
clean appends the wrapper writes the first half of record ``N + 1``
through ``append_durable`` — a real torn line, no newline, on disk —
and SIGKILLs its own process, so the exit status is 137 (-9 to
``subprocess``).  A stream shorter than ``N + 1`` records runs to the
end.  ``--slow S`` sleeps ``S`` seconds before every append, so a
killer outside the process has a wide window to land mid-sweep.

The ledger itself knows nothing of this: it only applies the commitment
rule.  pytest does not collect this file (its name is not ``test_*``);
``repro`` must be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
from typing import List, Optional

from repro.cli import main as repro_main
from repro.exp.ledger import LedgerWriter
from repro.util.jsonio import append_durable, compact_dumps


def arm(crash_after: Optional[int], slow: float) -> None:
    """Wrap ``LedgerWriter.append`` for the rest of this process."""
    append = LedgerWriter.append
    appends = 0

    def crashing_append(self, record):
        nonlocal appends
        if slow:
            time.sleep(slow)
        if appends == crash_after:
            line = compact_dumps(record) + "\n"
            append_durable(self._fh, line[: max(1, len(line) // 2)])
            os.kill(os.getpid(), signal.SIGKILL)
        append(self, record)
        appends += 1

    LedgerWriter.append = crashing_append


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="crash_harness.py", usage="%(prog)s [--crash-after N] [--slow S] -- ARGS..."
    )
    parser.add_argument("--crash-after", type=int, default=None, metavar="N")
    parser.add_argument("--slow", type=float, default=0.0, metavar="S")
    if "--" not in argv:
        parser.error("the repro arguments follow --")
    split = argv.index("--")
    opts = parser.parse_args(argv[:split])
    arm(opts.crash_after, opts.slow)
    return repro_main(argv[split + 1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
