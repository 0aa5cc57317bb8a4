"""Shared utilities: seeded RNG streams, statistics, ASCII tables."""

from repro.util.rng import RngHub
from repro.util.stats import Summary, summarize
from repro.util.tables import format_table

__all__ = [
    "RngHub",
    "Summary",
    "summarize",
    "format_table",
]
