"""Experiment analysis: the paper's properties, statistics and tables."""

from .stats import aggregate_rows, fraction_true, mean, stdev, summarize
from .tables import format_cell, render_markdown_table, render_table

__all__ = [
    "aggregate_rows",
    "format_cell",
    "fraction_true",
    "mean",
    "render_markdown_table",
    "render_table",
    "stdev",
    "summarize",
]
