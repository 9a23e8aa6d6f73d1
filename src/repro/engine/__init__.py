"""``repro.engine`` — the unified run engine.

One loop kernel hosts every flow the paper's case studies describe
(generate → evaluate with EDA tools → select → feed back), one
:class:`~repro.engine.budget.Budget` bounds what a run may spend, and one
:class:`~repro.engine.record.RunRecord` ledger subsumes the per-flow
counters.

Entry points:

* :class:`LoopKernel` / :class:`RefinementEngine` — the loop skeletons
  (see :mod:`repro.engine.kernel`);
* :class:`Budget` / :data:`UNLIMITED` — spending limits checked between
  rounds;
* :class:`RunRecord` / :class:`RoundLog` — the unified run ledger.
"""

from __future__ import annotations

from .budget import UNLIMITED, Budget
from .kernel import (LoopKernel, RefinementEngine, RoundState, Selection,
                     rank_by_score)
from .record import RoundLog, RunRecord

__all__ = [
    "Budget", "LoopKernel", "RefinementEngine", "RoundLog", "RoundState",
    "RunRecord", "Selection", "UNLIMITED", "rank_by_score",
]
