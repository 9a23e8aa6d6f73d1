"""Tests for the benchmark suite, pass@k harness, and the unified agent."""

import pytest

from repro.bench import (all_problems, evaluate_candidate, evaluate_model,
                         get_problem, make_task, problems_by)
from repro.core import (AgentConfig, EdaAgent, agent_report_text,
                        format_table, run_agent_sweep, sweep_report_text)
from repro.hdl import run_testbench
from repro.llm import PromptStrategy


class TestProblemSuite:
    @pytest.mark.parametrize("problem", all_problems(),
                             ids=lambda p: p.problem_id)
    def test_reference_passes_its_testbench(self, problem):
        result = run_testbench(problem.reference + "\n" + problem.testbench,
                               problem.tb_name)
        assert result.passed, result.feedback()

    def test_suite_spans_complexities(self):
        levels = {p.complexity for p in all_problems()}
        assert levels == {1, 2, 3, 4, 5}

    def test_filters(self):
        seq = problems_by(sequential=True)
        assert seq and all(p.sequential for p in seq)
        c1 = problems_by(complexity=1)
        assert all(p.complexity == 1 for p in c1)

    def test_get_problem_unknown(self):
        with pytest.raises(KeyError):
            get_problem("nope")

    def test_make_task_carries_metadata(self):
        p = get_problem("c5_accumulator_cpu")
        task = make_task(p)
        assert task.open_ended and task.complexity == 5

    def test_broken_candidate_scores_below_one(self):
        p = get_problem("c2_gray")
        broken = p.reference.replace("b ^ (b >> 1)", "b | (b >> 1)")
        result = evaluate_candidate(p, broken)
        assert result.compiled and not result.passed


class TestHarness:
    def test_pass_at_k_monotone_in_k(self):
        probs = problems_by(complexity=2)[:3]
        suite = evaluate_model("chatgpt-3.5", probs, k=4, seed=3)
        assert suite.pass_at_k(1) <= suite.pass_at_k(2) <= suite.pass_at_k(4)

    def test_by_complexity_buckets(self):
        probs = [get_problem("c1_mux2"), get_problem("c3_alu")]
        suite = evaluate_model("gpt-4", probs, k=1, seed=0)
        buckets = suite.by_complexity()
        assert set(buckets) == {1, 3}

    def test_strategy_recorded(self):
        suite = evaluate_model("gpt-4", [get_problem("c1_mux2")], k=1,
                               strategy=PromptStrategy.COT, seed=0)
        assert suite.strategy is PromptStrategy.COT

    def test_mean_best_score_range(self):
        suite = evaluate_model("dave-gpt2", [get_problem("c1_and4")], k=2,
                               seed=1)
        assert 0.0 <= suite.mean_best_score <= 1.0


class TestAgent:
    def test_agent_full_pipeline(self):
        agent = EdaAgent(AgentConfig(model="gpt-4o"), seed=1)
        report = agent.run(get_problem("c2_gray"))
        stages = [s for s, _, _ in report.stage_table()]
        assert "specification" in stages and "qor" in stages
        if report.success:
            assert report.state.verified
            assert report.state.ppa is not None
            assert "netlist" in report.state.modalities_present()

    def test_agent_report_text_renders(self):
        agent = EdaAgent(AgentConfig(model="gpt-4o"), seed=1)
        report = agent.run(get_problem("c1_mux2"))
        text = agent_report_text(report)
        assert "stage" in text and "specification" in text

    def test_feedback_reopens_rtl_stage(self):
        # A weak model on a hard problem should need reopens (or fail).
        agent = EdaAgent(AgentConfig(model="chatgpt-3.5", autochip_k=1,
                                     autochip_depth=1), seed=3)
        report = agent.run(get_problem("c4_seqdet"))
        assert report.reopens >= 0  # bounded
        assert report.reopens <= agent.config.max_reopens

    def test_sweep_statistics(self):
        sweep = run_agent_sweep([get_problem("c1_mux2"),
                                 get_problem("c2_gray")],
                                model="gpt-4o", seeds=(0,))
        assert 0.0 <= sweep.end_to_end_rate <= 1.0
        rates = sweep.stage_success_rates()
        assert "rtl_generation" in rates
        assert sweep_report_text(sweep)

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["x", "y"], ["long", "z"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) <= 2


class TestAgentReopen:
    """The reopen rule, forced: no natural run reaches it.

    A stub critic rejects the agent's first ``n`` static-analysis reviews
    (every other flow gets no critic), so static analysis fails and the
    agent must reopen RTL generation on a derived client.  The pinned
    sequences were recorded before the fixed pipeline became a scripted
    plan on the planner's loop.
    """

    PASS = [("specification", True), ("rtl_generation", True),
            ("static_analysis", True), ("verification", True),
            ("synthesis", True), ("qor", True)]
    REJECTED = [("rtl_generation", True), ("static_analysis", False)]

    def _run(self, monkeypatch, rejections, enable_feedback=True):
        import hashlib

        import repro.critic as critic_mod
        from repro.critic.verdict import CriticFailure, Verdict

        left = [rejections]

        class Rejecting:
            def review(self, texts, module_name=None):
                if left[0] > 0:
                    left[0] -= 1
                    return [Verdict(False, failures=(CriticFailure(
                        "judge", "stub", "forced rejection"),))]
                return [Verdict(True)]

        monkeypatch.setattr(
            critic_mod, "resolve_critic",
            lambda flow="", seed=0: Rejecting() if flow == "agent" else None)
        report = EdaAgent(AgentConfig(model="gpt-4o",
                                      enable_feedback=enable_feedback),
                          seed=1).run(get_problem("c2_gray"))
        rtl = hashlib.sha256(report.state.rtl_source.encode()).hexdigest()
        history = [(r.stage, r.success) for r in report.state.history]
        return report, history, rtl[:12]

    def test_one_rejection_reopens_and_completes(self, monkeypatch):
        report, history, rtl = self._run(monkeypatch, 1)
        assert history == self.PASS[:1] + self.REJECTED + self.PASS[1:]
        assert len(history) == 8
        assert report.success and report.reopens == 1
        assert report.run_record.stop_reason == "complete"
        assert rtl == "39fd653e7d89"

    def test_reopens_are_bounded(self, monkeypatch):
        report, history, rtl = self._run(monkeypatch, 5)
        assert history == self.PASS[:1] + self.REJECTED * 3
        assert not report.success and report.reopens == 2
        assert report.run_record.stop_reason == "stage-failure"
        assert rtl == "10f52bbe240d"

    def test_feedback_off_never_reopens(self, monkeypatch):
        report, history, rtl = self._run(monkeypatch, 1,
                                         enable_feedback=False)
        assert history == self.PASS[:1] + self.REJECTED
        assert not report.success and report.reopens == 0
        assert report.run_record.stop_reason == "stage-failure"
        assert rtl == "f760a9aa6962"

    def test_reopen_tokens_are_charged(self, monkeypatch):
        # A reopen regenerates (and mines assertions) on a derived client
        # with its own usage ledger; the run must charge that spend too.
        from repro.llm.model import SimulatedLLM

        derived = []
        derive = SimulatedLLM.derive

        def spy(self, seed):
            client = derive(self, seed)
            derived.append(client)
            return client

        monkeypatch.setattr(SimulatedLLM, "derive", spy)
        once, _, _ = self._run(monkeypatch, 1)
        assert len(derived) == 1
        reopen_spend = derived[0].usage.total_tokens
        assert reopen_spend > 0
        # Feedback off stops at the same first-pass static analysis, so
        # its spend is exactly the first pass.
        first_pass, _, _ = self._run(monkeypatch, 1, enable_feedback=False)
        assert once.total_tokens == first_pass.total_tokens + reopen_spend
        assert once.run_record.total_tokens == once.total_tokens

    def test_verification_failure_reopens_and_succeeds(self, monkeypatch):
        # A failed verification also reopens RTL generation.  Once every
        # step's last attempt passes, the run succeeds, even though the
        # failed verification is still in the recent history.
        from repro.core import agent as agent_mod
        from repro.core import steps as fig6

        failed = []

        def fail_once(ctx, args):
            if not failed:
                failed.append(True)
                ctx.state.verified = False
                return fig6._done(ctx, "verification", False,
                                  "forced failure")
            return fig6.verification(ctx, args)

        plan = tuple((name, fail_once if name == "verification" else fn)
                     for name, fn in agent_mod.ScriptedPolicy.PLAN)
        monkeypatch.setattr(agent_mod.ScriptedPolicy, "PLAN", plan)
        report = EdaAgent(AgentConfig(model="gpt-4o"),
                          seed=1).run(get_problem("c2_gray"))
        history = [(r.stage, r.success) for r in report.state.history]
        assert history == (self.PASS[:3] + [("verification", False)]
                           + self.PASS[1:])
        assert report.reopens == 1
        assert report.run_record.stop_reason == "complete"
        assert report.state.verified
        assert report.success
