"""Shared utilities: seeded RNG streams, statistics, ASCII tables, IDs."""

from repro.util.idgen import IdGenerator
from repro.util.rng import RngHub
from repro.util.stats import Summary, summarize
from repro.util.tables import format_table

__all__ = [
    "IdGenerator",
    "RngHub",
    "Summary",
    "summarize",
    "format_table",
]
