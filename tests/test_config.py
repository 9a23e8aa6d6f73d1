"""Tests for the consolidated ``REPRO_*`` settings reader."""

import warnings

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

    def test_env_int_bad_value_warns_once(self, monkeypatch, settings):
        monkeypatch.setenv("REPRO_COMPILE_CACHE", "many")
        with pytest.warns(RuntimeWarning, match="not an integer"):
            assert settings.compile_cache_capacity == 256
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # second read stays silent
            assert settings.compile_cache_capacity == 256

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
            "jobs", "hdl_cache", "compile_cache_capacity",
            "result_cache_capacity", "trace", "trace_file", "sim_engine",
            "store", "store_dir", "full_eval", "critic", "critic_judge"}
