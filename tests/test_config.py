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
            "jobs", "trace", "trace_file", "sim_engine", "store",
            "store_dir", "full_eval", "critic", "critic_judge"}


class TestRetiredCacheKnobs:
    def test_retired_cache_knobs_are_inert(self, monkeypatch):
        """The compile cache is always on at fixed capacities: setting the
        three retired knobs to 0 neither disables it nor shrinks it."""
        from repro.bench.problems import all_problems
        from repro.hdl import CompileCache, compile_design

        for suffix in ("HDL_CACHE", "COMPILE_CACHE", "RESULT_CACHE"):
            monkeypatch.setenv("REPRO_" + suffix, "0")
        monkeypatch.setenv("REPRO_STORE", "0")
        cache = CompileCache()
        problems = all_problems()[:2]
        for p in problems:
            compile_design((p.reference, p.testbench), p.tb_name, cache=cache)
        p = problems[0]
        again = compile_design((p.reference, p.testbench), p.tb_name,
                               cache=cache)
        assert again.from_cache
