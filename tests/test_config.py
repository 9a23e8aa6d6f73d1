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
        monkeypatch.setenv("REPRO_SERVICE_BATCH", "many")
        with pytest.warns(RuntimeWarning, match="not an integer"):
            assert settings.service_batch_size == 8
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # second read stays silent
            assert settings.service_batch_size == 8

    def test_accessors_read_environment_live(self, monkeypatch, settings):
        monkeypatch.setenv("REPRO_SERVICE", "1")
        assert settings.service_enabled is True
        monkeypatch.setenv("REPRO_SERVICE", "off")
        assert settings.service_enabled is False


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


class TestServiceKnobs:
    def test_defaults(self, monkeypatch, settings):
        for var in ("REPRO_SERVICE", "REPRO_SERVICE_BATCH",
                    "REPRO_SERVICE_QUEUE", "REPRO_SERVICE_RETRIES"):
            monkeypatch.delenv(var, raising=False)
        assert settings.service_enabled is False
        assert settings.service_batch_size == 8
        assert settings.service_queue_capacity == 256
        assert settings.service_max_retries == 3

    def test_floors(self, monkeypatch, settings):
        monkeypatch.setenv("REPRO_SERVICE_BATCH", "0")
        monkeypatch.setenv("REPRO_SERVICE_QUEUE", "-5")
        monkeypatch.setenv("REPRO_SERVICE_RETRIES", "-1")
        assert settings.service_batch_size == 1
        assert settings.service_queue_capacity == 1
        assert settings.service_max_retries == 0

    def test_broker_config_from_settings(self, monkeypatch, settings):
        from repro.service import BrokerConfig
        monkeypatch.setenv("REPRO_SERVICE_BATCH", "4")
        monkeypatch.setenv("REPRO_SERVICE_QUEUE", "32")
        monkeypatch.setenv("REPRO_SERVICE_RETRIES", "5")
        cfg = BrokerConfig.from_settings()
        assert cfg.max_batch == 4
        assert cfg.queue_capacity == 32
        assert cfg.max_retries == 5

    def test_breaker_and_timeout_knobs_are_wired(self, monkeypatch,
                                                 settings):
        # Regression: from_settings used to silently drop the breaker and
        # timeout knobs, so operators could not tune them at all.
        from repro.service import BrokerConfig
        monkeypatch.setenv("REPRO_SERVICE_BREAKER_THRESHOLD", "9")
        monkeypatch.setenv("REPRO_SERVICE_BREAKER_RESET_S", "1.5")
        monkeypatch.setenv("REPRO_SERVICE_TIMEOUT_S", "7.5")
        monkeypatch.setenv("REPRO_SERVICE_WORKERS", "3")
        cfg = BrokerConfig.from_settings()
        assert cfg.breaker_threshold == 9
        assert cfg.breaker_reset_s == 1.5
        assert cfg.request_timeout_s == 7.5
        assert cfg.max_concurrent == 3

    def test_breaker_and_timeout_defaults(self, monkeypatch, settings):
        for var in ("REPRO_SERVICE_BREAKER_THRESHOLD",
                    "REPRO_SERVICE_BREAKER_RESET_S",
                    "REPRO_SERVICE_TIMEOUT_S", "REPRO_SERVICE_WORKERS"):
            monkeypatch.delenv(var, raising=False)
        assert settings.service_breaker_threshold == 5
        assert settings.service_breaker_reset_s == 0.25
        assert settings.service_timeout_s == 60.0
        assert settings.service_workers is None

    def test_timeout_zero_disables_deadlines(self, monkeypatch, settings):
        monkeypatch.setenv("REPRO_SERVICE_TIMEOUT_S", "0")
        assert settings.service_timeout_s is None
        monkeypatch.setenv("REPRO_SERVICE_TIMEOUT_S", "-3")
        assert settings.service_timeout_s is None

    def test_env_float_bad_value_warns_once(self, monkeypatch, settings):
        monkeypatch.setenv("REPRO_SERVICE_BREAKER_RESET_S", "soon")
        with pytest.warns(RuntimeWarning, match="not a number"):
            assert settings.service_breaker_reset_s == 0.25
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert settings.service_breaker_reset_s == 0.25


class TestSnapshot:
    def test_snapshot_covers_every_knob(self, settings):
        snap = settings.snapshot()
        for key in ("jobs", "hdl_cache", "compile_cache_capacity",
                    "result_cache_capacity", "trace", "trace_file",
                    "service", "service_batch_size",
                    "service_queue_capacity", "service_max_retries",
                    "service_breaker_threshold", "service_breaker_reset_s",
                    "service_timeout_s", "service_workers",
                    "full_eval"):
            assert key in snap
