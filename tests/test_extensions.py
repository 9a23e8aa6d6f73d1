"""Tests for the Section VI extension modules: high-level guided debugging,
hardware security, and kernel extraction."""

import pytest

from repro.bench import get_problem
from repro.flows.crosscheck import (crosscheck, generate_highlevel_model,
                                    guided_debug, supports_crosscheck)
from repro.flows.security import (detect_with_cec, detect_with_random_cosim,
                                  detect_with_testbench, detection_sweep,
                                  insert_trojan)
from repro.hls.kernels import (extract_kernels, plan_accelerator,
                               profile_kernels)
from repro.llm import SimulatedLLM


class TestCrossCheck:
    def test_supported_problems(self):
        assert supports_crosscheck(get_problem("c3_alu"))
        assert not supports_crosscheck(get_problem("c2_counter"))

    def test_faithful_model_consistent_with_reference(self):
        problem = get_problem("c3_alu")
        llm = SimulatedLLM("gpt-4o", seed=1)
        model = generate_highlevel_model(problem, llm, seed=1)
        if model.faithful:
            report = crosscheck(problem, problem.reference, model, seed=1)
            assert report is not None and report.consistent, report.feedback()

    def test_models_consistent_across_suite(self):
        llm = SimulatedLLM("gpt-4o", seed=3)
        checked = 0
        for problem_id in ("c1_mux2", "c1_half_adder", "c2_adder8",
                           "c2_absdiff", "c2_gray", "c2_comparator",
                           "c2_decoder", "c3_alu", "c3_priority",
                           "c1_parity", "c1_and4"):
            problem = get_problem(problem_id)
            model = generate_highlevel_model(problem, llm, seed=3)
            if not model.faithful:
                continue
            report = crosscheck(problem, problem.reference, model, seed=3)
            assert report is not None and report.consistent, \
                f"{problem_id}: {report.feedback()}"
            checked += 1
        assert checked >= 8

    def test_divergence_localized_on_broken_rtl(self):
        problem = get_problem("c2_gray")
        llm = SimulatedLLM("gpt-4o", seed=2)
        model = generate_highlevel_model(problem, llm, seed=2)
        broken = problem.reference.replace("b ^ (b >> 1)", "b ^ (b >> 2)")
        report = crosscheck(problem, broken, model, seed=2)
        assert report is not None
        if model.faithful:
            assert report.divergences
            div = report.divergences[0]
            assert "inputs" in div and "expected" in div

    def test_unfaithful_models_parse_and_debug(self):
        """The operator flip never lands inside ``++``/``<<``, so every
        problem's unfaithful model parses and guided debugging returns."""
        from repro.bench.problems import all_problems
        from repro.hls import cparse
        model_name = "codellama-34b-instruct"
        problems = [p for p in all_problems() if supports_crosscheck(p)]
        assert len(problems) == 11
        for problem in problems:
            seed = next(s for s in range(1000) if not generate_highlevel_model(
                problem, SimulatedLLM(model_name, seed=s), seed=s).faithful)
            model = generate_highlevel_model(
                problem, SimulatedLLM(model_name, seed=seed), seed=seed)
            assert cparse(model.c_source).function("model")
            result = guided_debug(problem, SimulatedLLM(model_name, seed=seed),
                                  seed=seed)
            assert not result.model_faithful and result.used_crosscheck

    def test_guided_debug_runs(self):
        result = guided_debug(get_problem("c2_absdiff"),
                              SimulatedLLM("gpt-4", seed=5), seed=5)
        assert result.iterations <= 4
        assert result.used_crosscheck

    def test_crosscheck_beats_plain_feedback_in_aggregate(self):
        """Localized expected-vs-actual feedback should help at least as
        much as bare FAIL lines."""
        wins_x = wins_plain = 0
        for seed in range(6):
            for pid in ("c2_gray", "c2_absdiff", "c3_alu"):
                problem = get_problem(pid)
                x = guided_debug(problem,
                                 SimulatedLLM("codellama-34b-instruct",
                                              seed=seed),
                                 use_crosscheck=True, temperature=1.3,
                                 seed=seed)
                plain = guided_debug(problem,
                                     SimulatedLLM("codellama-34b-instruct",
                                                  seed=seed),
                                     use_crosscheck=False, temperature=1.3,
                                     seed=seed)
                wins_x += x.success
                wins_plain += plain.success
        assert wins_x >= wins_plain


class TestSecurity:
    def test_trojan_compiles_and_hides_from_testbench_sometimes(self):
        caught = 0
        total = 0
        for seed in range(4):
            for pid in ("c2_adder8", "c2_absdiff", "c3_alu", "c1_parity"):
                design = insert_trojan(get_problem(pid), seed=seed)
                if design is None:
                    continue
                total += 1
                report = detect_with_testbench(get_problem(pid), design)
                caught += report.detected
        assert total >= 8
        # Directed tests miss rare triggers most of the time.
        assert caught < total

    def test_cec_always_catches(self):
        for seed in range(6):
            for pid in ("c2_adder8", "c2_absdiff", "c3_alu"):
                problem = get_problem(pid)
                design = insert_trojan(problem, seed=seed)
                if design is None:
                    continue
                report = detect_with_cec(problem, design)
                assert report.detected, \
                    f"{pid} seed {seed}: CEC missed {design.trojan.description}"

    def test_random_cosim_improves_with_budget(self):
        problem = get_problem("c2_adder8")
        design = insert_trojan(problem, seed=1)
        assert design is not None
        few = detect_with_random_cosim(problem, design, vectors=4, seed=0)
        many = detect_with_random_cosim(problem, design, vectors=512, seed=0)
        assert many.detected or not few.detected

    def test_detection_hierarchy(self):
        problems = [get_problem(p) for p in ("c2_adder8", "c2_absdiff",
                                             "c3_alu")]
        rates = detection_sweep(problems, seeds=(0, 1, 2), cosim_vectors=64)
        assert rates["exhaustive_cec"] == 1.0
        assert rates["exhaustive_cec"] >= rates["random_cosim"] \
            >= 0.0
        assert rates["random_cosim"] >= rates["testbench"] - 0.34

    def test_sequential_designs_skipped(self):
        assert insert_trojan(get_problem("c2_counter"), seed=0) is None


WORKLOAD = """
int hot_mac(int a[8], int b[8]) {
    int acc = 0;
    for (int i = 0; i < 8; i++) {
        acc += a[i] * b[i];
    }
    return acc;
}
int cold_setup(int x) {
    return x * 2 + 1;
}
int main() {
    int a[8];
    int b[8];
    int s = cold_setup(3);
    for (int i = 0; i < 8; i++) { a[i] = i + s; b[i] = i * 3; }
    int total = 0;
    for (int r = 0; r < 20; r++) {
        int acc = hot_mac(a, b);
        total += acc;
    }
    return total;
}
"""


class TestKernelExtraction:
    def test_profile_identifies_hot_function(self):
        profiles = profile_kernels(WORKLOAD)
        assert profiles[0].function == "hot_mac"
        assert profiles[0].share > 0.3
        assert profiles[0].calls == 20

    def test_plan_accelerator_accounting(self):
        plan = plan_accelerator(WORKLOAD, "hot_mac")
        assert plan.calls == 20
        assert plan.cpu_cycles_per_call > 0
        assert plan.transfer_cycles_per_call >= 17  # two arrays + return
        assert plan.speedup_per_call > 0

    def test_extraction_report(self):
        report = extract_kernels(WORKLOAD, min_share=0.10)
        assert any(p.function == "hot_mac" for p in report.plans)
        assert "hot_mac" in report.summary()

    def test_unexecuted_function_rejected(self):
        src = "int ghost(int a) { return a; }\nint main() { return 1; }"
        with pytest.raises(KeyError):
            plan_accelerator(src, "ghost")

    def test_transfer_cost_can_kill_offload(self):
        # A tiny kernel called with big arrays: transfer dominates.
        src = """
int tiny(int a[32]) {
    return a[0] + 1;
}
int main() {
    int a[32];
    for (int i = 0; i < 32; i++) { a[i] = i; }
    int s = 0;
    for (int r = 0; r < 5; r++) { s += tiny(a); }
    return s;
}
"""
        plan = plan_accelerator(src, "tiny")
        assert not plan.worthwhile
