"""Tests for the differential fuzzing subsystem (repro.fuzz)."""

from __future__ import annotations

import dataclasses

import pytest

from repro import obs
from repro.fuzz import (FuzzConfig, OracleReport, generate_case,
                        generate_cases, run_campaign, run_oracles,
                        shrink_case, write_corpus_entry)
from repro.fuzz.__main__ import main as fuzz_main
from repro.fuzz.oracles import oracle_cache, oracle_roundtrip, oracle_synth
from repro.fuzz.runner import TB_SEPARATOR, FuzzFinding
from repro.hdl import parse, run_testbench, strip_locations, unparse
from repro.bench.problems import all_problems


class TestGenerator:
    def test_case_stream_is_deterministic(self):
        first = [(c.dut_source, c.tb_source)
                 for c in generate_cases(9, 10)]
        second = [(c.dut_source, c.tb_source)
                  for c in generate_cases(9, 10)]
        assert first == second

    def test_cases_vary_across_indices_and_seeds(self):
        sources = {generate_case(1, i).dut_source for i in range(10)}
        assert len(sources) > 5
        assert generate_case(1, 0).dut_source != generate_case(2, 0).dut_source

    def test_generated_cases_simulate_to_pass(self):
        for i in range(8):
            case = generate_case(3, i)
            result = run_testbench(case.dut_source, case.top,
                                   max_time=10_000, seed=1,
                                   tb_source=case.tb_source)
            problem = (result.compile_error or result.runtime_error
                       or result.output)
            assert result.passed, f"case {i}: {problem}"

    def test_feature_mix_is_reachable(self):
        cases = list(generate_cases(5, 60))
        assert any(c.sequential for c in cases)
        assert any(c.hierarchical for c in cases)
        assert any(not c.sequential and not c.hierarchical for c in cases)

    def test_config_controls_width(self):
        narrow = FuzzConfig(max_width=1)
        for i in range(5):
            case = generate_case(11, i, narrow)
            for line in case.dut_source.splitlines():
                if line.startswith("module "):
                    assert "[" not in line, "scalar-only config grew a vector"


class TestUnparser:
    def test_roundtrip_on_benchmark_designs(self):
        for problem in all_problems()[:6]:
            for source in (problem.reference, problem.testbench):
                first = strip_locations(parse(source))
                text = unparse(first)
                assert strip_locations(parse(text)) == first
                assert unparse(strip_locations(parse(text))) == text


class TestOracles:
    def test_all_oracles_agree_on_fresh_cases(self):
        for i in range(6):
            reports = run_oracles(generate_case(21, i))
            assert len(reports) == 6
            for report in reports:
                assert not report.divergence, \
                    f"case {i} [{report.name}/{report.kind}]: {report.detail}"

    def test_synth_oracle_skips_sequential(self):
        case = next(c for c in generate_cases(5, 60) if c.sequential)
        report = oracle_synth(case)
        assert report.skipped and report.ok

    def test_synth_oracle_flags_out_of_subset_design(self):
        # Division by a non-power-of-two is outside the synthesizable
        # subset; if the generator ever emits it, the oracle must flag it.
        case = dataclasses.replace(
            generate_case(1, 0), sequential=False, hierarchical=False,
            dut_source="module fz_dut(input [3:0] a, output [3:0] y);\n"
                       "  assign y = a / 3;\nendmodule\n")
        report = oracle_synth(case)
        assert report.divergence
        assert report.kind.startswith("synth-error")

    def test_roundtrip_oracle_flags_unparseable(self):
        case = dataclasses.replace(
            generate_case(1, 1), dut_source="module broken(\n")
        report = oracle_roundtrip(case)
        assert report.divergence and report.kind == "reparse-error"

    def test_cache_oracle_accepts_clean_case(self):
        report = oracle_cache(generate_case(1, 2))
        assert report.ok and not report.skipped


class TestShrinker:
    def test_shrinks_synthetic_failure(self):
        def pred(dut, tb):
            parse(dut)
            parse(tb)
            return "^" in dut

        case = next(c for c in generate_cases(2, 40) if "^" in c.dut_source)
        result = shrink_case(case, pred)
        assert "^" in result.dut_source
        assert len(result.dut_source) < len(case.dut_source)
        assert len(result.tb_source) < len(case.tb_source)
        assert result.rounds > 0

    def test_shrunk_output_still_parses(self):
        def pred(dut, tb):
            parse(dut)
            parse(tb)
            return "?" in dut

        case = next(c for c in generate_cases(3, 40) if "?" in c.dut_source)
        result = shrink_case(case, pred, max_checks=150)
        parse(result.dut_source)
        parse(result.tb_source)

    def test_budget_is_respected(self):
        def pred(dut, tb):
            return True

        case = generate_case(1, 0)
        result = shrink_case(case, pred, max_checks=10)
        assert result.checks <= 10


class TestCampaign:
    def test_clean_campaign(self, tmp_path):
        result = run_campaign(10, 1, corpus_dir=str(tmp_path))
        assert result.ok
        assert result.cases_run == 10
        assert result.oracle_runs == 60
        assert list(tmp_path.iterdir()) == []

    def test_campaign_summary_shape(self):
        result = run_campaign(3, 2, corpus_dir=None)
        summary = result.summary()
        assert summary["cases_run"] == 3
        assert summary["divergences"] == 0

    def test_finding_written_to_corpus(self, tmp_path):
        case = generate_case(1, 0)
        finding = FuzzFinding(
            case=case,
            report=OracleReport("synth", ok=False, kind="cec-mismatch",
                                detail="outputs ['out0'] diverge"),
            shrunk_dut=case.dut_source, shrunk_tb=case.tb_source)
        path = write_corpus_entry(finding, str(tmp_path))
        text = open(path, encoding="utf-8").read()
        assert TB_SEPARATOR in text
        assert f"--seed {case.campaign_seed} --replay {case.index}" in text
        assert "oracle=synth" in text and "kind=cec-mismatch" in text

    def test_campaign_emits_metrics_when_traced(self):
        sink = obs.InMemorySink()
        obs.install_tracer(obs.Tracer(sink, enabled=True))
        obs.reset_metrics()
        try:
            run_campaign(2, 1, corpus_dir=None)
            metrics = obs.get_metrics()
            assert metrics.counter("fuzz.cases").value == 2
            assert metrics.counter("fuzz.oracle_runs").value == 12
            names = [r["name"] for r in sink.records
                     if r.get("type") == "span"]
            assert "fuzz.case" in names
        finally:
            obs.reset_tracer()
            obs.reset_metrics()

    def test_campaign_untraced_emits_nothing(self):
        obs.reset_tracer()
        obs.reset_metrics()
        run_campaign(2, 1, corpus_dir=None)
        assert obs.get_metrics().counter("fuzz.cases").value == 0


class TestCli:
    def test_smoke(self, capsys):
        assert fuzz_main(["--budget", "5", "--seed", "2", "--no-corpus",
                          "--quiet"]) == 0
        out = capsys.readouterr().out
        assert '"divergences": 0' in out

    def test_show(self, capsys):
        assert fuzz_main(["--seed", "4", "--show", "17"]) == 0
        out = capsys.readouterr().out
        assert "module fz_dut" in out and "module tb" in out

    def test_replay_clean_case(self, capsys):
        assert fuzz_main(["--seed", "4", "--replay", "17"]) == 0
        out = capsys.readouterr().out
        assert "roundtrip" in out

    def test_oracle_subset(self, capsys):
        assert fuzz_main(["--budget", "3", "--seed", "1", "--no-corpus",
                          "--quiet", "--oracles", "roundtrip,cache"]) == 0
        out = capsys.readouterr().out
        assert '"oracle_runs": 6' in out

    def test_unknown_oracle_rejected(self):
        with pytest.raises(SystemExit):
            fuzz_main(["--budget", "1", "--oracles", "nope"])

    def test_bad_budget_rejected(self):
        with pytest.raises(SystemExit):
            fuzz_main(["--budget", "0", "--no-corpus"])

    def test_bad_seed_value_rejected(self):
        with pytest.raises(SystemExit):
            fuzz_main(["--seed", "not-a-number"])


@pytest.mark.slow
class TestCampaignSlow:
    def test_two_hundred_cases_clean(self):
        result = run_campaign(200, 4, corpus_dir=None)
        assert result.ok, [f.describe() for f in result.findings]

    def test_replay_matches_campaign_stream(self):
        stream = [(c.dut_source, c.tb_source) for c in generate_cases(4, 50)]
        replayed = [(generate_case(4, i).dut_source,
                     generate_case(4, i).tb_source) for i in range(50)]
        assert stream == replayed
