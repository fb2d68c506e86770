"""Plain-text table rendering for experiment reports.

The harness prints every experiment as a fixed-width table (and can emit
Markdown for ``EXPERIMENTS.md``).  No third-party dependency is used so the
harness stays runnable in the offline environment.

Trace-derived columns: :func:`attach_trace_columns` joins the rows of a
per-round pivot with a trace aggregation (a ``Trace``, whether recorded
in memory or read back from the run store), so report tables can cite
event counts and payload-byte tallies computed straight from the
recorded trace next to the metric columns.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = [
    "format_cell",
    "render_table",
    "render_markdown_table",
    "trace_table",
    "attach_trace_columns",
]


def format_cell(value: object) -> str:
    """Human-friendly formatting: floats get 4 significant digits."""

    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if value == int(value) and abs(value) < 1e6:
            return str(int(value))
        return f"{value:.4g}"
    return str(value)


def _columns(rows: Sequence[Mapping[str, object]]) -> list[str]:
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return columns


def render_table(rows: Sequence[Mapping[str, object]], *, title: str | None = None) -> str:
    """Render rows as an aligned fixed-width text table."""

    if not rows:
        return f"{title or 'table'}: (no rows)"
    columns = _columns(rows)
    formatted = [[format_cell(row.get(c, "")) for c in columns] for row in rows]
    widths = [
        max(len(columns[i]), *(len(line[i]) for line in formatted))
        for i in range(len(columns))
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for line in formatted:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))
    return "\n".join(lines)


def trace_table(
    trace,
    kinds=None,
    *,
    by: str = "round",
    reduce="count",
    title: str | None = None,
) -> str:
    """Render a trace aggregation as a text table.

    ``trace`` is a :class:`repro.sim.events.Trace`, in memory or read
    back from the run store (whose sealed segments aggregate
    footer-pruned, one at a time).  The remaining arguments pass
    straight through to ``aggregate``.
    """

    return render_table(
        trace.aggregate(kinds, by=by, reduce=reduce), title=title
    )


def attach_trace_columns(
    rows: Sequence[Mapping[str, object]],
    trace,
    kinds=None,
    *,
    reduce="count",
    prefix: str = "trace_",
) -> list[dict]:
    """Join per-round report rows with trace-derived columns.

    Aggregates ``trace`` by round (``kinds``/``reduce`` as in
    ``aggregate``) and merges each reducer value into the row with the
    matching ``"round"`` key as ``<prefix><reducer>``; rounds the trace
    never saw get ``0``.  Rows without a ``"round"`` key pass through
    unchanged.  Returns new dicts — the input rows are not mutated.
    """

    by_round = {
        agg_row["round"]: {
            f"{prefix}{name}": value
            for name, value in agg_row.items()
            if name != "round"
        }
        for agg_row in trace.aggregate(kinds, by="round", reduce=reduce)
    }
    reducers = (reduce,) if isinstance(reduce, str) else tuple(reduce)
    zeros = {f"{prefix}{name}": 0 for name in reducers}
    joined = []
    for row in rows:
        merged = dict(row)
        if "round" in row:
            merged.update(by_round.get(row["round"], zeros))
        joined.append(merged)
    return joined


def render_markdown_table(rows: Sequence[Mapping[str, object]]) -> str:
    """Render rows as a GitHub-flavoured Markdown table."""

    if not rows:
        return "_(no rows)_"
    columns = _columns(rows)
    lines = ["| " + " | ".join(columns) + " |", "|" + "|".join("---" for _ in columns) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(format_cell(row.get(c, "")) for c in columns) + " |")
    return "\n".join(lines)
