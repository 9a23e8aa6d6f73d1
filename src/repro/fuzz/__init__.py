"""``repro.fuzz`` — differential fuzzing of the mini-Verilog stack.

A seeded grammar generator (:mod:`repro.fuzz.grammar`) emits
random-but-valid designs plus matching testbenches; six differential
oracles (:mod:`repro.fuzz.oracles`) cross-check the toolchain against
itself — simulation vs synthesis, cached vs cold compiles, parallel vs
serial evaluation, parse/unparse round trips, compiled vs event-driven
simulation, and critic trojan detection.  Divergences are minimized by an AST delta-debugger
(:mod:`repro.fuzz.shrink`) and filed into ``tests/corpus/`` as permanent
regressions (:mod:`repro.fuzz.runner`).  ``python -m repro.fuzz`` drives a
campaign; every case replays from ``(campaign seed, index)`` alone.
"""

from __future__ import annotations

from .grammar import (DUT_NAME, LEAF_NAME, TB_NAME, FuzzCase, FuzzConfig,
                      generate_case, generate_cases)
from .oracles import ORACLES, OracleReport, run_oracles
from .runner import (DEFAULT_CORPUS_DIR, TB_SEPARATOR, CampaignResult,
                     FuzzFinding, corpus_entry, run_campaign,
                     write_corpus_entry)
from .shrink import ShrinkResult, oracle_predicate, shrink_case

__all__ = [
    "CampaignResult", "DEFAULT_CORPUS_DIR", "DUT_NAME", "FuzzCase",
    "FuzzConfig", "FuzzFinding", "LEAF_NAME", "ORACLES", "OracleReport",
    "ShrinkResult", "TB_NAME", "TB_SEPARATOR", "corpus_entry",
    "generate_case",
    "generate_cases", "oracle_predicate", "run_campaign", "run_oracles",
    "shrink_case", "write_corpus_entry",
]
