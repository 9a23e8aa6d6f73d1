"""Critic stage: verdicts, rules, engine wiring, flow integration.

The calibration contract (zero false-accepts on the labeled corpus, zero
false-rejects on the references) lives in ``test_critic_corpus.py``;
this file covers the machinery around it — the verdict algebra, the
``RefinementEngine`` hook semantics, the per-flow wiring under ``REPRO_CRITIC=1``, and the
satellite fix that threads lint warnings back into regeneration.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.bench.problems import get_problem
from repro.config import get_settings
from repro.critic import (ACCEPT, Critic, CriticFailure, Verdict,
                          resolve_critic, validate_assertion,
                          validate_expectation, validate_rtl,
                          verdicts_feedback)
from repro.critic.verdict import TAX_LINT, TAX_WIDTH

CLEAN_RTL = """
module mux2(input wire sel, input wire a, input wire b, output wire y);
  assign y = sel ? a : b;
endmodule
"""

BAD_WIDTH_RTL = """
module lanes(input wire sel, input wire [7:0] lane_a,
             output wire [3:0] dout);
  assign dout = sel ? lane_a : 4'hF;
endmodule
"""

def _fail(tax=TAX_WIDTH, rule="ternary-width", detail="d"):
    return CriticFailure(tax, rule, detail)


class TestVerdict:
    def test_accept_singleton(self):
        assert ACCEPT.ok
        assert ACCEPT.labels() == ()
        assert ACCEPT.feedback() == ""

    def test_failure_str(self):
        assert str(_fail()) == "[width] ternary-width: d"

    def test_labels_dedupe_first_hit_order(self):
        verdict = Verdict(ok=False, failures=(
            _fail(TAX_WIDTH), _fail(TAX_LINT), _fail(TAX_WIDTH)))
        assert verdict.labels() == (TAX_WIDTH, TAX_LINT)

    def test_feedback_lists_failures(self):
        verdict = Verdict(ok=False, failures=(_fail(),))
        text = verdict.feedback()
        assert "CRITIC" in text
        assert "[width] ternary-width: d" in text

    def test_summary_shape(self):
        summary = Verdict(ok=False, failures=(_fail(),)).summary()
        assert summary == {"ok": False, "stage": "rules",
                           "labels": [TAX_WIDTH]}

    def test_verdicts_feedback_counts_and_limits(self):
        verdicts = [ACCEPT] + [Verdict(ok=False, failures=(_fail(),))
                               for _ in range(4)]
        text = verdicts_feedback(verdicts)
        assert "4 of 5" in text
        # Only the first three rejected candidates are detailed.
        assert text.count("ternary-width") == 3

    def test_verdicts_feedback_empty_when_all_ok(self):
        assert verdicts_feedback([ACCEPT, ACCEPT]) == ""


class TestRules:
    def test_clean_module_accepted(self):
        assert validate_rtl(CLEAN_RTL).ok

    def test_module_name_filter(self):
        source = CLEAN_RTL + BAD_WIDTH_RTL
        assert validate_rtl(source, "mux2").ok
        assert not validate_rtl(source, "lanes").ok
        assert not validate_rtl(source).ok

    def test_dead_reset_with_else_accepted(self):
        source = """
        module ctr(input wire clk, input wire rst, output reg [3:0] q);
          always @(posedge clk) begin
            if (rst) q <= 4'd0;
            else q <= q + 4'd1;
          end
        endmodule
        """
        assert validate_rtl(source).ok

    def test_narrow_compare_not_a_trojan(self):
        # 2-bit selector mux: a decode, not a rare trigger.
        source = """
        module dec(input wire [1:0] sel, input wire [3:0] a,
                   output wire [3:0] y);
          assign y = (sel == 2'd3) ? (a ^ 4'h1) : a;
        endmodule
        """
        assert validate_rtl(source).ok

    def test_expectation_literals(self):
        assert validate_expectation("4'hf") is None
        assert validate_expectation("12") is None
        assert validate_expectation("x") is None
        bad = validate_expectation("4'h3_wrong")
        assert bad is not None and bad.rule == "malformed-expectation"

    def test_assertion_vacuity(self):
        verdict = validate_assertion({}, "4'h3")
        assert not verdict.ok
        assert any(f.rule == "vacuous-assertion" for f in verdict.failures)
        assert validate_assertion({"a": 1}, "4'h3").ok


class TestConfigAndResolve:
    def test_critic_off_by_default(self):
        settings = get_settings()
        assert settings.critic_enabled is False
        assert resolve_critic("autochip") is None

    def test_critic_resolves_when_enabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_CRITIC", "1")
        critic = resolve_critic("autochip")
        assert isinstance(critic, Critic)
        assert critic.flow == "autochip"

    def test_snapshot_records_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_CRITIC", "1")
        snap = get_settings().snapshot()
        assert snap["critic"] is True


class TestCriticReview:
    def test_review_counts_metrics(self):
        obs.reset_metrics()
        critic = Critic(flow="test")
        verdicts = critic.review([CLEAN_RTL, BAD_WIDTH_RTL])
        assert [v.ok for v in verdicts] == [True, False]
        metrics = obs.get_metrics()
        assert metrics.counter("critic.candidates").value == 2
        assert metrics.counter("critic.rejected").value == 1
        assert metrics.counter("critic.flag.width").value == 1

    def test_engine_hook_extracts_text(self):
        class Cand:
            def __init__(self, text):
                self.text = text

        hook = Critic(flow="test").engine_hook()
        verdicts = hook(None, [Cand(CLEAN_RTL), Cand(BAD_WIDTH_RTL)])
        assert [v.ok for v in verdicts] == [True, False]


class _Cand:
    def __init__(self, text):
        self.text = text


def _mini_engine(rounds_of_texts, critic_hook, seen, **kwargs):
    from repro.engine.kernel import RefinementEngine, rank_by_score
    rounds = iter(rounds_of_texts)

    def candidates(state):
        return [_Cand(t) for t in next(rounds)]

    def evaluate(state, cands):
        seen.append(len(cands))
        return [1.0] * len(cands)

    def select(state, cands, outcomes):
        return rank_by_score(cands, outcomes, score=lambda o: o)

    return RefinementEngine(candidates=candidates, evaluate=evaluate,
                            select=select,
                            max_rounds=len(rounds_of_texts),
                            critic=critic_hook, **kwargs)


class TestEngineWiring:
    def test_rejected_candidates_filtered_before_evaluate(self):
        seen = []
        critic = Critic(flow="test")
        engine = _mini_engine([[CLEAN_RTL, BAD_WIDTH_RTL]],
                              critic.engine_hook(), seen)
        record = engine.run()
        assert seen == [1]
        assert record.critic_reviews == 2
        assert record.critic_rejections == 1
        assert record.critic_verdicts == [{
            "round": 1,
            "verdicts": [ACCEPT.summary(),
                         {"ok": False, "stage": "rules",
                          "labels": [TAX_WIDTH]}]}]

    def test_all_rejected_keeps_every_candidate(self):
        seen = []
        critic = Critic(flow="test")
        engine = _mini_engine([[BAD_WIDTH_RTL, BAD_WIDTH_RTL]],
                              critic.engine_hook(), seen)
        record = engine.run()
        assert seen == [2]
        assert record.critic_rejections == 2

    def test_critic_filter_false_is_annotate_only(self):
        seen = []
        critic = Critic(flow="test")
        engine = _mini_engine([[CLEAN_RTL, BAD_WIDTH_RTL]],
                              critic.engine_hook(), seen,
                              critic_filter=False)
        record = engine.run()
        assert seen == [2]
        assert record.critic_rejections == 1

    def test_rejection_feedback_reaches_next_round(self):
        seen = []
        critic = Critic(flow="test")
        engine = _mini_engine([[BAD_WIDTH_RTL], [CLEAN_RTL]],
                              critic.engine_hook(), seen)
        record = engine.run()
        # Round 1's log shows the feedback it consumed: the repair
        # context appended after round 0's rejection.
        assert "CRITIC" in record.rounds[1].feedback_used

    def test_no_critic_is_pre_critic_path(self):
        seen = []
        engine = _mini_engine([[CLEAN_RTL, BAD_WIDTH_RTL]], None, seen)
        record = engine.run()
        assert seen == [2]
        assert record.critic_reviews == 0
        assert record.critic_verdicts == []


class TestFlowsUnderCritic:
    """Every flow completes with REPRO_CRITIC=1 and reviews candidates."""

    def test_autochip_reviews_candidates(self, monkeypatch):
        from repro.flows.autochip import run_autochip
        monkeypatch.setenv("REPRO_CRITIC", "1")
        result = run_autochip(get_problem("c1_mux2"), "gpt-4o",
                              k=2, depth=1, seed=0)
        assert result.run_record.critic_reviews >= 2

    def test_vrank_reviews_candidates(self, monkeypatch):
        from repro.flows.vrank import vrank
        monkeypatch.setenv("REPRO_CRITIC", "1")
        result = vrank(get_problem("c1_mux2"), "gpt-4o",
                       n_candidates=3, seed=0)
        assert result.run_record.critic_reviews >= 3

    def test_hierarchical_completes(self, monkeypatch):
        from repro.flows.hierarchical import hierarchical_sweep
        monkeypatch.setenv("REPRO_CRITIC", "1")
        sweep = hierarchical_sweep([get_problem("c2_gray")],
                                   "cl-verilog-34b", seeds=(0,))
        assert sweep.results

    def test_structured_completes(self, monkeypatch):
        from repro.flows.structured import run_structured_sweep
        monkeypatch.setenv("REPRO_CRITIC", "1")
        sweep = run_structured_sweep("gpt-4", [get_problem("c2_gray")],
                                     seeds=(0,))
        assert sweep.results

    def test_crosscheck_completes(self, monkeypatch):
        from repro.flows.crosscheck import guided_debug_sweep
        monkeypatch.setenv("REPRO_CRITIC", "1")
        sweep = guided_debug_sweep([get_problem("c3_alu")],
                                   "chatgpt-3.5", seeds=(0,))
        assert sweep.results

    def test_chipchat_completes_and_critic_turns_are_gated(self,
                                                           monkeypatch):
        from repro.flows.chipchat import run_chipchat_tapeout
        off = run_chipchat_tapeout([get_problem("c2_adder8")],
                                   "chatgpt-3.5", seed=0)
        for result in off.results:
            assert all(t.role != "critic" for t in result.transcript)
        monkeypatch.setenv("REPRO_CRITIC", "1")
        on = run_chipchat_tapeout([get_problem("c2_adder8")],
                                  "chatgpt-3.5", seed=0)
        assert on.results

    def test_assertgen_screens_assertions(self, monkeypatch):
        from repro.flows.assertgen import assertion_sweep
        monkeypatch.setenv("REPRO_CRITIC", "1")
        sweep = assertion_sweep([get_problem("c2_gray")], "gpt-4",
                                seeds=(0,))
        assert sweep.results

    def test_autobench_screens_testbench(self, monkeypatch):
        from repro.flows.autobench import testbench_quality
        monkeypatch.setenv("REPRO_CRITIC", "1")
        report = testbench_quality(get_problem("c2_gray"), "chatgpt-3.5",
                                   seed=0)
        assert report is not None

    def test_judge_mode_still_completes(self, monkeypatch):
        """The retired judge knob is inert: a critic-on flow completes and
        every verdict comes from the rules stage alone."""
        from repro.flows.autochip import run_autochip
        monkeypatch.setenv("REPRO_CRITIC", "1")
        monkeypatch.setenv("REPRO_" + "CRITIC_JUDGE", "1")
        result = run_autochip(get_problem("c1_mux2"), "gpt-4o",
                              k=2, depth=1, seed=0)
        record = result.run_record
        assert record.critic_reviews >= 2
        assert {v["stage"] for r in record.critic_verdicts
                for v in r["verdicts"]} == {"rules"}


class TestSecurityCritic:
    def test_detect_with_critic_flags_inserted_trojan(self):
        from repro.flows.security import detect_with_critic, insert_trojan
        problem = get_problem("c2_gray")
        design = insert_trojan(problem, seed=0)
        assert design is not None
        report = detect_with_critic(problem, design)
        assert report.detector == "critic"
        assert report.detected

    def test_sweep_detector_set_is_gated(self, monkeypatch):
        from repro.flows.security import detection_sweep
        off = detection_sweep([get_problem("c2_gray")], seeds=(0,),
                              jobs=1)
        assert "critic" not in off
        monkeypatch.setenv("REPRO_CRITIC", "1")
        on = detection_sweep([get_problem("c2_gray")], seeds=(0,), jobs=1)
        assert on["critic"] == 1.0
        # The simulation detectors are untouched by the extra column.
        assert {k: v for k, v in on.items() if k != "critic"} == off


class TestScreens:
    def test_screen_testbench_drops_malformed_rows(self):
        from repro.flows.autobench import GeneratedTestbench
        tb = GeneratedTestbench(
            problem_id="p", model="m", clk=None, reset=None,
            vectors=[{"a": 0}, {"a": 1}, {"a": 2}],
            expectations=[{"y": "1'h0"}, {"y": "1'h1_wrong"}, {"y": "x"}])
        critic = Critic(flow="autobench")
        tb, dropped = critic.screen_testbench(tb)
        assert dropped == 1
        assert tb.vectors == [{"a": 0}, {"a": 2}]
        assert tb.expectations == [{"y": "1'h0"}, {"y": "x"}]

    def test_screen_assertions_rejects_bad_ones(self):
        from repro.flows.assertgen import Assertion
        good = Assertion("point", (("a", 1),), "y", "1'h1", "ok")
        vacuous = Assertion("point", (), "y", "1'h1", "no stimulus")
        corrupt = Assertion("point", (("a", 0),), "y", "1'h0_wrong",
                            "corrupted")
        critic = Critic(flow="assertgen")
        kept, rejected = critic.screen_assertions([good, vacuous, corrupt])
        assert kept == [good]
        assert [a for a, _ in rejected] == [vacuous, corrupt]


class TestCriticReport:
    def test_critic_table_renders_counters(self):
        from repro.obs.report import critic_table, render
        records = [{"type": "metrics",
                    "counters": {"critic.candidates": 6,
                                 "critic.rejected": 2,
                                 "critic.flag.width": 1,
                                 "engine.generations": 6}}]
        table = critic_table(records)
        assert "critic.candidates" in table
        assert "critic.flag.width" in table
        assert "engine.generations" not in table
        assert "critic.rejected" in render(records)

    def test_critic_table_empty_without_critic_metrics(self):
        from repro.obs.report import critic_table
        assert critic_table([{"type": "metrics",
                              "counters": {"engine.generations": 3}}]) == ""
        assert critic_table([]) == ""


class TestAgentLintThreading:
    """Satellite fix: lint warnings reach the regeneration prompt."""

    def _capture(self, monkeypatch):
        from repro.flows import autochip as mod
        captured = []
        orig = mod.AutoChip.run

        def spy(self, problem, budget=None, *, initial_feedback=""):
            captured.append(initial_feedback)
            return orig(self, problem, budget,
                        initial_feedback=initial_feedback)

        monkeypatch.setattr(mod.AutoChip, "run", spy)
        return captured

    def _run_stage(self, monkeypatch, warnings, enable_feedback=True):
        from repro.core.state import DesignState
        from repro.core.steps import rtl_generation
        from repro.llm.client import resolve_client
        from repro.tools import ToolContext
        captured = self._capture(monkeypatch)
        problem = get_problem("c1_mux2")
        state = DesignState(spec=problem.spec)
        state.lint_warnings = warnings
        ctx = ToolContext(llm=resolve_client("chatgpt-3.5", seed=0),
                          problem=problem, state=state)
        rtl_generation(ctx, {"enable_feedback": enable_feedback,
                             "k": 1, "depth": 1})
        return captured

    def test_lint_warnings_thread_into_regeneration(self, monkeypatch):
        captured = self._run_stage(
            monkeypatch, ["LINT-LATCH: 'q' not driven on every path"])
        assert len(captured) == 1
        assert "static analysis of the previous attempt" in captured[0]
        assert "LINT-LATCH" in captured[0]

    def test_first_pass_prompt_is_unchanged(self, monkeypatch):
        assert self._run_stage(monkeypatch, []) == [""]

    def test_feedback_off_suppresses_threading(self, monkeypatch):
        captured = self._run_stage(
            monkeypatch, ["LINT-LATCH: stale"], enable_feedback=False)
        assert captured == [""]

    def test_feedback_changes_the_generation(self):
        from repro.flows.autochip import AutoChip, AutoChipConfig
        from repro.llm.client import resolve_client
        problem = get_problem("c4_seqdet")
        base = AutoChip(resolve_client("chatgpt-3.5", seed=5),
                        AutoChipConfig(k=1, depth=1)).run(problem)
        fed = AutoChip(resolve_client("chatgpt-3.5", seed=5),
                       AutoChipConfig(k=1, depth=1)).run(
            problem, initial_feedback="static analysis of the previous "
            "attempt reported:\nLINT-LATCH: 'state' not driven")
        assert base.best_source != fed.best_source

    def test_reopen_convergence_does_not_regress(self):
        # The pre-fix weak-model scenario: reopens stay bounded and the
        # run completes (same contract as test_feedback_reopens_rtl_stage,
        # now with lint findings threaded into the reopened prompt).
        from repro.core.agent import AgentConfig, EdaAgent
        agent = EdaAgent(AgentConfig(model="chatgpt-3.5", autochip_k=1,
                                     autochip_depth=1), seed=3)
        report = agent.run(get_problem("c4_seqdet"))
        assert 0 <= report.reopens <= agent.config.max_reopens
