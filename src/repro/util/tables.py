"""ASCII table rendering for sweep and claim reports.

The paper-claim tests print the same rows/series the paper's figures imply;
this module renders them as monospace tables so the output of
``pytest tests/test_paper_claims.py -s`` is self-describing.
"""

from __future__ import annotations

from typing import Any, Sequence


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: str | None = None,
) -> str:
    """Render ``rows`` under ``headers`` as a boxed ASCII table.

    Every row must have exactly ``len(headers)`` cells; a mismatch is a
    harness bug and raises ``ValueError`` rather than misaligning output.
    """
    headers = [str(h) for h in headers]
    str_rows = []
    for row in rows:
        cells = [_cell(c) for c in row]
        if len(cells) != len(headers):
            raise ValueError(
                f"row has {len(cells)} cells but table has {len(headers)} headers: {row!r}"
            )
        str_rows.append(cells)

    widths = [len(h) for h in headers]
    for cells in str_rows:
        for i, cell in enumerate(cells):
            widths[i] = max(widths[i], len(cell))

    def line(fill: str = "-", joint: str = "+") -> str:
        return joint + joint.join(fill * (w + 2) for w in widths) + joint

    def render_row(cells: Sequence[str]) -> str:
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"

    out = []
    if title:
        out.append(title)
    out.append(line())
    out.append(render_row(headers))
    out.append(line("="))
    for cells in str_rows:
        out.append(render_row(cells))
    out.append(line())
    return "\n".join(out)
