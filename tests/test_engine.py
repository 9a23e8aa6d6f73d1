"""Unit coverage for the run engine (:mod:`repro.engine`).

The golden-record tests (``test_engine_golden.py``) pin the rebased flows
byte-for-byte; these tests pin the kernel's own contracts — budget
validation and exhaustion, round accounting, stop-hook ordering and
selection ranking.
"""

from __future__ import annotations

import pytest

from repro.engine import (Budget, LoopKernel, RefinementEngine, RunRecord,
                          Selection, UNLIMITED, rank_by_score)
from repro.obs import get_metrics


class TestBudget:
    def test_default_is_unlimited(self):
        assert Budget().unlimited
        assert UNLIMITED.unlimited
        assert UNLIMITED.exhausted(RunRecord()) is None

    @pytest.mark.parametrize("kwargs", [
        {"max_tokens": 0}, {"max_generations": -1}, {"max_evals": 0},
        {"max_rounds": -3}, {"deadline_s": 0.0}, {"deadline_s": -0.5},
    ])
    def test_nonpositive_limits_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must be positive"):
            Budget(**kwargs)

    def test_exhaustion_reasons(self):
        record = RunRecord(rounds_used=2, generations=6, tool_evaluations=6,
                           total_tokens=900)
        assert Budget(max_rounds=2).exhausted(record) == "budget:rounds"
        assert Budget(max_tokens=900).exhausted(record) == "budget:tokens"
        assert Budget(max_generations=5).exhausted(record) \
            == "budget:generations"
        assert Budget(max_evals=6).exhausted(record) == "budget:evals"
        assert Budget(deadline_s=1.0).exhausted(record, elapsed_s=1.0) \
            == "budget:deadline"
        assert Budget(max_rounds=3, max_tokens=901, max_evals=7).exhausted(
            record, elapsed_s=0.0) is None


class TestLoopKernel:
    def test_max_rounds_bounds_the_loop(self):
        ran = []
        record = LoopKernel(step=lambda s, sp: ran.append(s.round_no),
                            max_rounds=3, span_name=None).run()
        assert ran == [1, 2, 3]
        assert record.rounds_used == 3
        assert record.stop_reason == "rounds"

    def test_step_stop_reason_wins(self):
        record = LoopKernel(
            step=lambda s, sp: "converged" if s.round_no == 2 else None,
            max_rounds=10, span_name=None).run()
        assert record.rounds_used == 2
        assert record.stop_reason == "converged"

    def test_stop_hook_checked_before_each_round(self):
        ran = []

        def step(state, sp):
            ran.append(state.round_no)
            return None

        record = LoopKernel(step=step,
                            stop=lambda s: "quota" if s.round_no >= 2
                            else None,
                            max_rounds=10, span_name=None).run()
        assert ran == [1, 2]
        assert record.stop_reason == "quota"

    def test_budget_truncates_and_marks_record(self):
        record = RunRecord()

        def step(state, sp):
            record.tool_evaluations += 4
            return None

        before = get_metrics().counter("engine.budget_exhausted").value
        LoopKernel(step=step, record=record, budget=Budget(max_evals=8),
                   max_rounds=10, span_name=None).run()
        # Started rounds always finish: two rounds run (4, then 8 evals),
        # the third is refused before it starts.
        assert record.rounds_used == 2
        assert record.budget_exhausted == "budget:evals"
        assert record.stop_reason == "budget:evals"
        assert get_metrics().counter("engine.budget_exhausted").value \
            == before + 1

    def test_deadline_uses_injected_clock(self):
        now = {"t": 0.0}

        def step(state, sp):
            now["t"] += 10.0
            return None

        record = LoopKernel(step=step, budget=Budget(deadline_s=25.0),
                            max_rounds=100, span_name=None,
                            clock=lambda: now["t"]).run()
        assert record.rounds_used == 3
        assert record.budget_exhausted == "budget:deadline"


class TestRefinementEngine:
    def _engine(self, **kwargs):
        return RefinementEngine(
            candidates=lambda s: ["a", "b"],
            evaluate=lambda s, cands: [0.25, 0.75],
            select=lambda s, cands, outs: rank_by_score(
                cands, outs, lambda o: o),
            span_name=None, **kwargs)

    def test_counts_and_round_logs(self):
        engine = self._engine(max_rounds=2,
                              feedback=lambda s, sel: f"r{s.round_no}")
        record = engine.run()
        assert record.generations == 4
        assert record.tool_evaluations == 4
        assert [log.round_no for log in record.rounds] == [1, 2]
        # The log keeps the feedback each round CONSUMED, not produced.
        assert [log.feedback_used for log in record.rounds] == ["", "r1"]
        assert record.rounds[0].best_score == 0.75

    def test_stop_after_runs_before_feedback(self):
        seen = []
        engine = self._engine(
            max_rounds=5,
            stop_after=lambda s, sel: "passed" if sel.best_score > 0.5
            else None,
            feedback=lambda s, sel: seen.append(s.round_no) or "fb")
        record = engine.run()
        assert record.stop_reason == "passed"
        assert record.rounds_used == 1
        assert seen == []   # feedback hook skipped once stopped


class TestRankByScore:
    def test_stable_tie_break_prefers_submission_order(self):
        sel = rank_by_score(["x", "y", "z"], [1.0, 1.0, 0.5], lambda o: o)
        assert isinstance(sel, Selection)
        assert sel.best_index == 0
        assert sel.best_candidate == "x"
        assert sel.scores == [1.0, 1.0, 0.5]

    def test_best_index_is_original_position(self):
        sel = rank_by_score(["x", "y", "z"], [0.1, 0.9, 0.5], lambda o: o)
        assert sel.best_index == 1
        assert sel.best_outcome == 0.9
