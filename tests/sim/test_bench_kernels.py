"""The benchmark's event-queue and network kernels run against the
simulator's API.

``bench/benchlib/kernels.py`` drives :class:`~repro.sim.events.EventQueue`
directly: ``schedule(..., label=...)``, ``cancel(handle)`` and ``step()``
until None.  Running its two ``sim`` thunks once here turns a break in that
API into a test failure instead of a failed benchmark run.
"""

from __future__ import annotations

import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "bench")


@pytest.fixture
def kernels(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    from benchlib import kernels

    return kernels


def test_the_events_kernel_runs_every_event_it_does_not_withdraw(kernels, tmp_path):
    # 30 000 scheduled, every tenth (3 000) withdrawn, the other 27 000 run
    assert kernels._events(str(tmp_path))() == 30_000 + 3_000 + 27_000


def test_the_network_kernel_counts_every_message_it_sends(kernels, tmp_path):
    assert kernels._network(str(tmp_path))() == 10_000
