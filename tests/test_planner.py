"""Planner agent tests: tool-registry conformance, grounding, determinism.

The conformance half mirrors ``tests/test_flow_registry`` for the tool
catalogue; the determinism half is the planner's acceptance gate —
byte-identity across direct and scheduler execution, plus the
pipeline-inexpressible PPA tuning loop.
"""

import pytest

from repro.core import (GroundedPolicy, PlannerAgent, parse_action,
                        render_action)
from repro.core.state import DesignState
from repro.engine import Budget
from repro.exec import SweepScheduler
from repro.tasks import TASKS, get_task, run_task, run_task_suite
from repro.tasks.suite import planner_task_cell
from repro.tools import (ToolArg, ToolContext, ToolCost, ToolError,
                         ToolOutcome, ToolSpec, build_tool_index, get_tool,
                         list_tools, register_tool)


def _report_key(report):
    """Everything observable about one planner run, for identity checks."""
    return (report.summary(), report.transcript(), report.tool_sequence,
            report.success, report.stop_reason, report.total_tokens)


class TestToolRegistry:
    def test_expected_tools_registered(self):
        names = {spec.name for spec in list_tools()}
        assert names == {"generate_rtl", "compile_rtl", "lint_rtl",
                         "critic_review", "run_testbench", "crosscheck",
                         "fuzz_spot_check", "synthesize", "ppa_report",
                         "tune_synthesis", "hls_repair", "doc_lookup",
                         "finish"}

    def test_listing_is_sorted(self):
        names = [spec.name for spec in list_tools()]
        assert names == sorted(names)

    def test_unknown_tool_lists_known_names(self):
        with pytest.raises(KeyError, match="known tools.*synthesize"):
            get_tool("route_and_place")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            register_tool(get_tool("finish"))

    def test_specs_are_complete(self):
        for spec in list_tools():
            assert isinstance(spec, ToolSpec)
            assert callable(spec.fn)
            assert spec.summary and spec.doc, spec.name
            assert isinstance(spec.args, tuple)
            assert all(isinstance(a, ToolArg) for a in spec.args), spec.name
            assert isinstance(spec.returns, tuple), spec.name
            assert isinstance(spec.requires, tuple), spec.name
            assert isinstance(spec.cost, ToolCost), spec.name

    def test_validate_rejects_unknown_argument(self):
        errors = get_tool("generate_rtl").validate({"beam_width": 7})
        assert any("unknown argument" in e for e in errors)

    def test_validate_rejects_missing_required(self):
        errors = get_tool("doc_lookup").validate({})
        assert any("missing required" in e for e in errors)

    def test_validate_rejects_type_mismatch(self):
        errors = get_tool("generate_rtl").validate({"k": "three"})
        assert any("expects int" in e for e in errors)

    def test_bound_args_apply_defaults(self):
        bound = get_tool("fuzz_spot_check").bound_args({})
        assert bound["vectors"] == 64

    def test_invoke_gates_on_missing_modality(self):
        ctx = ToolContext(llm=None, state=DesignState(spec="x"))
        with pytest.raises(ToolError, match="requires rtl"):
            get_tool("run_testbench").invoke(ctx)

    def test_invoke_raises_on_schema_violation(self):
        ctx = ToolContext(llm=None, state=DesignState(spec="x"))
        with pytest.raises(ToolError, match="unknown argument"):
            get_tool("finish").invoke(ctx, {"reason": "done"})


class TestGrounding:
    def test_ranking_is_deterministic_and_cited(self):
        index = build_tool_index(list_tools(), spec_text="adder spec")
        first = index.rank("report PPA and fix the slowest path")
        second = index.rank("report PPA and fix the slowest path")
        assert [(g.tool, g.score) for g in first] \
            == [(g.tool, g.score) for g in second]
        assert first[0].tool in ("ppa_report", "tune_synthesis")
        assert any(c.startswith("tool:") for c in first[0].citations)

    def test_spec_documents_ground_but_never_rank(self):
        index = build_tool_index(
            list_tools(), spec_text="an 8-bit ripple carry adder module")
        for grounded in index.rank("design the 8-bit adder"):
            assert not grounded.tool.startswith("spec:")


class TestActionGrammar:
    def test_roundtrip(self):
        text = render_action("synthesize", {"x": 1}, ("tool:synthesize",),
                             "next step")
        action = parse_action(text)
        assert not action.malformed
        assert action.tool == "synthesize"
        assert action.args == {"x": 1}
        assert action.citations == ("tool:synthesize",)
        assert action.rationale == "next step"

    def test_prose_is_malformed_not_fatal(self):
        action = parse_action("I think we should synthesize next.")
        assert action.malformed
        assert "no CALL line" in action.error

    def test_bad_json_is_malformed(self):
        action = parse_action("CALL synthesize {not json}")
        assert action.malformed

    def test_non_object_args_are_malformed(self):
        action = parse_action("CALL synthesize [1, 2]")
        assert action.malformed


class TestPlannerDeterminism:
    def test_scheduler_fanout_matches_direct(self):
        cells = [("adder_verify", "gpt-4o", s, None) for s in (0, 1)]
        direct = [run_task("adder_verify", "gpt-4o", seed=s) for s in (0, 1)]
        fanned = SweepScheduler(2).map(planner_task_cell, cells)
        assert [_report_key(r) for r in fanned] \
            == [_report_key(r) for r in direct]


class TestCriticThreading:
    def test_rejection_verdicts_become_repair_context(self):
        """critic_review rejections land in DesignState.critic_verdicts and
        thread into the regeneration feedback the planner conditions on."""
        state = DesignState(spec="x")
        state.rtl_source = ("module bad(output wire y);\n"
                           "  assign y = phantom_net;\nendmodule\n")
        state.module_name = "bad"
        ctx = ToolContext(llm=None, state=state)
        outcome = get_tool("critic_review").invoke(ctx)
        assert not outcome.ok
        assert state.critic_verdicts
        feedback = GroundedPolicy._feedback_text(ctx)
        assert state.critic_verdicts[0] in feedback


class TestTaskSuite:
    def test_known_tasks_are_well_formed(self):
        assert len(TASKS) >= 6
        assert sum(not t.pipeline_expressible for t in TASKS) >= 1
        for task in TASKS:
            assert task.goal and callable(task.check)

    def test_unknown_task_lists_known_ids(self):
        with pytest.raises(KeyError, match="known tasks.*adder_verify"):
            get_task("fabricate_wafer")

    def test_ppa_tune_needs_a_pipeline_inexpressible_sequence(self):
        """The acceptance scenario: report -> targeted fix -> re-report,
        a loop the fixed stage pipeline (one synthesis visit) cannot
        express."""
        report = run_task("alu_ppa_tune", "gpt-4o", seed=0)
        assert report.success
        seq = report.tool_sequence
        i = seq.index("ppa_report")
        j = seq.index("tune_synthesis", i + 1)
        assert "ppa_report" in seq[j + 1:]

    def test_suite_scores_pass_at_k(self):
        result = run_task_suite("gpt-4o", k=2,
                                task_ids=("adder_verify",), jobs=1)
        assert result.k == 2
        assert len(result.scores) == 1
        score = result.scores[0]
        assert score.attempts == 2
        assert 0 <= score.passes <= 2
        assert len(score.tool_sequences) == 2
        assert "adder_verify" in result.summary()

    def test_max_steps_bounds_the_loop(self):
        report = PlannerAgent("gpt-4o", seed=0, max_steps=1).run(
            "design the 8-bit adder and verify it")
        assert len(report.steps) <= 1

    def test_token_budget_stops_the_loop(self):
        report = run_task("adder_verify", "gpt-4o", seed=0,
                          budget=Budget(max_tokens=1))
        assert report.stop_reason == "budget:tokens"
        assert len(report.steps) <= 2
