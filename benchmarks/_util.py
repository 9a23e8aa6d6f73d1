"""Shared helpers for the experiment benchmarks.

Every benchmark regenerates one of the paper's figures/claims and prints the
corresponding table (run pytest with ``-s`` to see them).  Budgets default
to scaled-down versions so ``pytest benchmarks/ --benchmark-only`` finishes
quickly; set ``REPRO_FULL_EVAL=1`` (or any other truthy value) to reproduce
the full-budget numbers recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import os

from repro.config import get_settings


def full_eval() -> bool:
    return get_settings().full_eval


def scale(full_value: float, quick_value: float) -> float:
    return full_value if full_eval() else quick_value


_RESULTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "results_latest.txt")


def print_table(title: str, headers: list[str], rows: list[list[object]]) -> None:
    """Print a result table and mirror it to benchmarks/results_latest.txt
    (pytest captures stdout unless run with -s; the mirror file keeps the
    regenerated tables inspectable either way)."""
    from repro.core.report import format_table
    text = f"\n=== {title} ===\n{format_table(headers, rows)}\n"
    print(text, end="")
    with open(_RESULTS_PATH, "a", encoding="utf-8") as fh:
        fh.write(text)
