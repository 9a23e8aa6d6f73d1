"""Shared helpers for the experiment benchmarks.

Every benchmark regenerates one of the paper's figures/claims and prints the
corresponding table (run pytest with ``-s`` to see them).  Budgets default
to scaled-down versions so ``pytest benchmarks/ --benchmark-only`` finishes
quickly; set ``REPRO_FULL_EVAL=1`` (or any other truthy value) to reproduce
the full-budget numbers recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import os

from repro.config import Settings

FULL_EVAL_ENV = "REPRO_FULL_EVAL"


def full_eval() -> bool:
    return Settings.env_bool(FULL_EVAL_ENV, False)


_RESULTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "results_latest.txt")


def _replace_block(text: str, title: str, block: str) -> str:
    """``text`` with the block headed ``=== title ===`` replaced by
    ``block``, or with ``block`` appended when no such block exists.  A
    block runs from its header to the next header (or the end)."""
    header = f"\n=== {title} ===\n"
    start = text.find(header)
    if start < 0:
        return text + block
    end = text.find("\n=== ", start + len(header))
    return text[:start] + block + (text[end:] if end >= 0 else "")


def print_table(title: str, headers: list[str], rows: list[list[object]]) -> None:
    """Print a result table and mirror it to benchmarks/results_latest.txt
    (pytest captures stdout unless run with -s; the mirror file keeps the
    regenerated tables inspectable either way).  The file holds one copy of
    each title: a rerun rewrites its block in place."""
    from repro.core.report import format_table
    text = f"\n=== {title} ===\n{format_table(headers, rows)}\n"
    print(text, end="")
    try:
        with open(_RESULTS_PATH, encoding="utf-8") as fh:
            current = fh.read()
    except FileNotFoundError:
        current = ""
    with open(_RESULTS_PATH, "w", encoding="utf-8") as fh:
        fh.write(_replace_block(current, title, text))
