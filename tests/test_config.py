"""Tests for the consolidated ``REPRO_*`` settings reader."""

import pytest

from repro.config import (ENV_JOBS, Settings, get_settings,
                          reset_warned_values)


@pytest.fixture
def settings():
    reset_warned_values()
    yield get_settings()
    reset_warned_values()


class TestGenericAccessors:
    def test_env_bool_shared_falsy_set(self, monkeypatch):
        for falsy in ("", "0", "false", "No", "OFF"):
            monkeypatch.setenv("REPRO_TRACE", falsy)
            assert Settings.env_bool("REPRO_TRACE", True) is False
        for truthy in ("1", "true", "yes", "anything"):
            monkeypatch.setenv("REPRO_TRACE", truthy)
            assert Settings.env_bool("REPRO_TRACE", False) is True
        monkeypatch.delenv("REPRO_TRACE")
        assert Settings.env_bool("REPRO_TRACE", True) is True
        assert Settings.env_bool("REPRO_TRACE", False) is False

    def test_accessors_read_environment_live(self, monkeypatch, settings):
        monkeypatch.setenv("REPRO_CRITIC", "1")
        assert settings.critic_enabled is True
        monkeypatch.setenv("REPRO_CRITIC", "off")
        assert settings.critic_enabled is False


class TestResolveJobs:
    def test_argument_beats_environment(self, monkeypatch, settings):
        monkeypatch.setenv(ENV_JOBS, "7")
        assert settings.resolve_jobs(2) == 2
        assert settings.resolve_jobs(None) == 7

    def test_auto_uses_cpu_count(self, settings):
        import os
        assert settings.resolve_jobs("auto") == max(1, os.cpu_count() or 1)
        assert settings.resolve_jobs(-1) == max(1, os.cpu_count() or 1)

    def test_bad_value_degrades_to_serial_with_warning(self, monkeypatch,
                                                       settings):
        monkeypatch.setenv(ENV_JOBS, "lots")
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            assert settings.resolve_jobs(None) == 1


class TestSnapshot:
    def test_snapshot_covers_every_knob(self, settings):
        assert set(settings.snapshot()) == {
            "jobs", "trace", "trace_file", "full_eval", "critic"}


class TestFullEval:
    def test_bench_budgets_follow_settings(self, monkeypatch, settings):
        """The benches read ``REPRO_FULL_EVAL`` through the same reader
        as ``Settings.snapshot()``, so every truthy spelling counts."""
        import importlib.util
        from pathlib import Path
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "_util.py"
        spec = importlib.util.spec_from_file_location("bench_util", path)
        util = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(util)
        for raw, expected in (("true", True), ("1", True), ("off", False),
                              ("", False)):
            monkeypatch.setenv("REPRO_FULL_EVAL", raw)
            assert util.full_eval() is expected
            assert settings.snapshot()["full_eval"] is expected


class TestRetiredKnobs:
    def test_retired_cache_knobs_are_inert(self, monkeypatch):
        """The compile cache is always on at fixed capacities: setting the
        three retired knobs to 0 neither disables it nor shrinks it."""
        from repro.bench.problems import all_problems
        from repro.hdl import CompileCache, compile_design

        for suffix in ("HDL_CACHE", "COMPILE_CACHE", "RESULT_CACHE"):
            monkeypatch.setenv("REPRO_" + suffix, "0")
        cache = CompileCache()
        problems = all_problems()[:2]
        for p in problems:
            compile_design((p.reference, p.testbench), p.tb_name, cache=cache)
        p = problems[0]
        again = compile_design((p.reference, p.testbench), p.tb_name,
                               cache=cache)
        assert again.from_cache

    def test_retired_sim_engine_knob_is_inert(self, monkeypatch):
        """An eligible design runs on the compiled engine even with the
        retired engine knob asking for the event engine."""
        from repro import obs
        from repro.hdl import CompileCache, run_testbench

        monkeypatch.setenv("REPRO_" + "SIM_ENGINE", "event")
        obs.install_tracer(obs.Tracer(obs.InMemorySink(), enabled=True))
        obs.reset_metrics()
        try:
            run_testbench(_COUNTER_TB, "tb", cache=CompileCache())
            counters = obs.get_metrics().snapshot()["counters"]
        finally:
            obs.reset_tracer()
            obs.reset_metrics()
        assert counters.get("sim.backend.compiled.runs") == 1
        assert "sim.backend.event.runs" not in counters

    def test_retired_judge_knob_is_inert(self, monkeypatch):
        """With the critic on, the retired judge knob adds no judge: a
        rule-clean candidate is accepted by the rules stage alone."""
        from repro import obs
        from repro.critic import resolve_critic

        monkeypatch.setenv("REPRO_CRITIC", "1")
        monkeypatch.setenv("REPRO_" + "CRITIC_JUDGE", "1")
        obs.reset_metrics()
        try:
            critic = resolve_critic("test")
            verdicts = critic.review([_COUNTER_TB])
            counters = obs.get_metrics().snapshot()["counters"]
        finally:
            obs.reset_metrics()
        assert [(v.ok, v.stage) for v in verdicts] == [(True, "rules")]
        assert not any("judge" in name for name in counters)

    def test_retired_store_knobs_are_inert(self, monkeypatch, tmp_path):
        """The compile cache has no disk tier: with the retired store
        knobs set, a testbench run writes nothing to their directory."""
        from repro.hdl import CompileCache, run_testbench

        monkeypatch.setenv("REPRO_" + "STORE", "1")
        monkeypatch.setenv("REPRO_" + "STORE_DIR", str(tmp_path))
        result = run_testbench(_COUNTER_TB, "tb", cache=CompileCache())
        assert result.passed
        assert list(tmp_path.iterdir()) == []


_COUNTER_TB = """
module counter(input clk, output reg [3:0] q);
  initial q = 0;
  always @(posedge clk) q <= q + 4'h1;
endmodule
module tb();
  reg clk;
  wire [3:0] q;
  counter u0(.clk(clk), .q(q));
  initial begin
    clk = 0;
    repeat (6) #1 clk = ~clk;
    if (q == 4'h3) $display("PASS: q=%d", q);
    else $display("FAIL: q=%d", q);
    $finish;
  end
endmodule
"""
