"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.lang.compileprog import compile_program
from repro.lang.programs import get_program


@pytest.fixture
def fib_program():
    """A small fib instance: 15 spawned tasks, answer 5."""
    return get_program("fib", 5)


@pytest.fixture
def tiny_program():
    """Three-task chain G -> P -> C, mirroring Figure 6's scenario."""
    return compile_program(
        """
        (define (g n) (+ 1 (p n)))
        (define (p n) (+ 1 (c n)))
        (define (c n) (* n n))
        (g 4)
        """
    )


@pytest.fixture(scope="session")
def big_sweep(tmp_path_factory):
    """``smoke`` x 100, the 400-point sweep the ``sweep-session``
    benchmark runs, ledgered and cached once per test session."""
    from repro.exp import get_scenario, run_scenario, with_replications

    root = str(tmp_path_factory.mktemp("big-sweep"))
    return run_scenario(
        with_replications(get_scenario("smoke"), 100),
        cache_dir=root,
        ledger_dir=os.path.join(root, "ledger"),
    )
