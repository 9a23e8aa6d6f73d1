"""The sweep scheduler (:class:`repro.exec.SweepScheduler`).

Satellite of the run-engine PR: sweeps route through one scheduler that
pipelines generation/evaluation across (problem, seed) cells.  The
contract under test is *byte-identity* — scheduling is an execution
detail, never a statistics change.
"""

from __future__ import annotations

import pytest

from repro.bench.problems import get_problem
from repro.exec import SweepScheduler
from repro.flows.autochip import compare_budgets
from repro.obs import get_metrics


def _square(payload):
    return payload * payload


class TestSweepScheduler:
    def test_serial_and_scheduled_agree(self):
        cells = list(range(12))
        serial = SweepScheduler(jobs=None).map(_square, cells)
        fanned = SweepScheduler(jobs=3).map(_square, cells)
        assert serial == [c * c for c in cells]
        assert fanned == serial

    def test_order_is_submission_order(self):
        cells = [5, 1, 4, 2]
        assert SweepScheduler(2).map(_square, cells) == [25, 1, 16, 4]

    def test_jobs_default_is_serial(self):
        scheduler = SweepScheduler()
        assert scheduler.jobs == 1

    def test_cell_counter_increments(self):
        before = get_metrics().counter("exec.sweep_cells").value
        SweepScheduler(jobs=None).map(_square, [1, 2, 3])
        assert get_metrics().counter("exec.sweep_cells").value == before + 3


class TestCompareBudgetsIdentity:
    """compare_budgets statistics must not depend on the worker count."""

    @pytest.mark.slow
    def test_scheduled_matches_serial(self):
        problems = [get_problem("c2_gray"), get_problem("c2_absdiff")]
        serial = compare_budgets("chatgpt-3.5", problems, budget=2,
                                 seeds=(0, 1), jobs=None)
        fanned = compare_budgets("chatgpt-3.5", problems, budget=2,
                                 seeds=(0, 1), jobs=2)
        assert fanned == serial
