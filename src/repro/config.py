"""``repro.config`` — one typed reader for every ``REPRO_*`` environment knob.

Before this module each subsystem parsed its own environment variables
(``repro.exec`` read ``REPRO_JOBS``, ``repro.hdl.compile`` read the cache
knobs, ``repro.obs`` read the trace switches), each with slightly different
falsy conventions and error handling.  :class:`Settings` centralizes the
parsing with three rules:

* accessors read ``os.environ`` **live**, so tests and operators can flip a
  knob mid-process (matching the pre-existing behaviour of every knob);
* unparseable non-empty values degrade to the documented default and emit a
  **one-time** ``RuntimeWarning`` naming the bad value and its source (the
  behaviour ``REPRO_JOBS`` pioneered, now uniform across all knobs);
* boolean knobs share one falsy set (``"", 0, false, no, off`` — case
  insensitive) so ``REPRO_TRACE=off`` and ``REPRO_SERVICE=off`` mean what
  they say.
"""

from __future__ import annotations

import os
import warnings

ENV_JOBS = "REPRO_JOBS"
ENV_HDL_CACHE = "REPRO_HDL_CACHE"
ENV_COMPILE_CACHE = "REPRO_COMPILE_CACHE"
ENV_RESULT_CACHE = "REPRO_RESULT_CACHE"
ENV_TRACE = "REPRO_TRACE"
ENV_TRACE_FILE = "REPRO_TRACE_FILE"
ENV_SERVICE = "REPRO_SERVICE"
ENV_SERVICE_BATCH = "REPRO_SERVICE_BATCH"
ENV_SERVICE_QUEUE = "REPRO_SERVICE_QUEUE"
ENV_SERVICE_RETRIES = "REPRO_SERVICE_RETRIES"
ENV_SERVICE_BREAKER_THRESHOLD = "REPRO_SERVICE_BREAKER_THRESHOLD"
ENV_SERVICE_BREAKER_RESET_S = "REPRO_SERVICE_BREAKER_RESET_S"
ENV_SERVICE_TIMEOUT_S = "REPRO_SERVICE_TIMEOUT_S"
ENV_SERVICE_WORKERS = "REPRO_SERVICE_WORKERS"
ENV_FULL_EVAL = "REPRO_FULL_EVAL"
ENV_CRITIC = "REPRO_CRITIC"
ENV_CRITIC_JUDGE = "REPRO_CRITIC_JUDGE"
ENV_GEN_CONCURRENCY = "REPRO_GEN_CONCURRENCY"
ENV_SIM_ENGINE = "REPRO_SIM_ENGINE"
ENV_STORE = "REPRO_STORE"
ENV_STORE_DIR = "REPRO_STORE_DIR"

DEFAULT_STORE_DIR = ".repro-store"

_SIM_ENGINES = ("auto", "event", "compiled")

_FALSY = ("", "0", "false", "no", "off")

# One warning per (source, bad value) pair for the process lifetime, shared
# by every accessor (and aliased by repro.exec.parallel for compatibility).
_warned_values: set[tuple[str, str]] = set()


def _warn_once(source: str, value: str, message: str) -> None:
    key = (source, value)
    if key in _warned_values:
        return
    _warned_values.add(key)
    warnings.warn(message, RuntimeWarning, stacklevel=4)


class Settings:
    """Live, typed view of the ``REPRO_*`` environment knobs."""

    # -- generic accessors ---------------------------------------------------

    @staticmethod
    def env_bool(name: str, default: bool) -> bool:
        raw = os.environ.get(name)
        if raw is None:
            return default
        return raw.strip().lower() not in _FALSY

    @staticmethod
    def env_int(name: str, default: int) -> int:
        raw = os.environ.get(name, "").strip()
        if not raw:
            return default
        try:
            return int(raw)
        except ValueError:
            _warn_once(
                f"{name} environment variable", raw,
                f"{name} environment variable value {raw!r} is not an "
                f"integer; falling back to the default ({default})")
            return default

    @staticmethod
    def env_float(name: str, default: float) -> float:
        raw = os.environ.get(name, "").strip()
        if not raw:
            return default
        try:
            return float(raw)
        except ValueError:
            _warn_once(
                f"{name} environment variable", raw,
                f"{name} environment variable value {raw!r} is not a "
                f"number; falling back to the default ({default})")
            return default

    @staticmethod
    def env_str(name: str, default: str = "") -> str:
        return os.environ.get(name, default).strip()

    # -- worker pools --------------------------------------------------------

    def resolve_jobs(self, jobs: int | str | None = None) -> int:
        """Worker count: explicit argument > ``REPRO_JOBS`` > serial (1).

        ``"auto"`` or any negative value means one worker per CPU.  An
        unparseable value degrades to serial but warns once, naming the bad
        value and where it came from.
        """
        source = "jobs argument"
        if jobs is None:
            env = self.env_str(ENV_JOBS)
            if not env:
                return 1
            jobs = env
            source = f"{ENV_JOBS} environment variable"
        if isinstance(jobs, str):
            if jobs.lower() == "auto":
                jobs = -1
            else:
                try:
                    jobs = int(jobs)
                except ValueError:
                    _warn_once(
                        source, jobs,
                        f"{source} value {jobs!r} is not an integer or "
                        f"'auto'; falling back to serial evaluation (jobs=1)")
                    return 1
        if jobs < 0:
            return max(1, os.cpu_count() or 1)
        return max(1, jobs)

    # -- compile cache -------------------------------------------------------

    @property
    def hdl_cache_enabled(self) -> bool:
        return self.env_bool(ENV_HDL_CACHE, True)

    @property
    def compile_cache_capacity(self) -> int:
        return self.env_int(ENV_COMPILE_CACHE, 256)

    @property
    def result_cache_capacity(self) -> int:
        return self.env_int(ENV_RESULT_CACHE, 1024)

    def cache_region_capacity(self, region: str) -> int:
        """Memory capacity of one named cache region.

        The legacy knobs configure their regions of the unified
        :class:`repro.store.CacheBackend` surface — ``REPRO_COMPILE_CACHE``
        sizes ``parse``/``design``/``program``, ``REPRO_RESULT_CACHE``
        sizes ``result`` — so existing tuning keeps working unchanged.
        Unnamed regions (campaign journals, future artifact kinds) get the
        compile-cache default.
        """
        if region == "result":
            return self.result_cache_capacity
        return self.compile_cache_capacity

    # -- artifact store ------------------------------------------------------

    @property
    def store_enabled(self) -> bool:
        """``REPRO_STORE=1`` persists cache artifacts and campaign
        checkpoints to disk (``REPRO_STORE_DIR``), shared across
        processes; off (the default) keeps every cache memory-only."""
        return self.env_bool(ENV_STORE, False)

    @property
    def store_dir(self) -> str:
        return self.env_str(ENV_STORE_DIR) or DEFAULT_STORE_DIR

    # -- observability -------------------------------------------------------

    @property
    def trace_enabled(self) -> bool:
        return self.env_bool(ENV_TRACE, False)

    @property
    def trace_file(self) -> str:
        return self.env_str(ENV_TRACE_FILE)

    # -- critic --------------------------------------------------------------

    @property
    def critic_enabled(self) -> bool:
        """``REPRO_CRITIC=1`` turns on the two-stage candidate critic."""
        return self.env_bool(ENV_CRITIC, False)

    @property
    def critic_judge_enabled(self) -> bool:
        """``REPRO_CRITIC_JUDGE=1`` adds the seeded LLM-judge stage."""
        return self.env_bool(ENV_CRITIC_JUDGE, False)

    # -- model-serving broker ------------------------------------------------

    @property
    def service_enabled(self) -> bool:
        """``REPRO_SERVICE=1`` routes every resolved client via the broker."""
        return self.env_bool(ENV_SERVICE, False)

    @property
    def service_batch_size(self) -> int:
        return max(1, self.env_int(ENV_SERVICE_BATCH, 8))

    @property
    def service_queue_capacity(self) -> int:
        return max(1, self.env_int(ENV_SERVICE_QUEUE, 256))

    @property
    def service_max_retries(self) -> int:
        return max(0, self.env_int(ENV_SERVICE_RETRIES, 3))

    @property
    def service_breaker_threshold(self) -> int:
        """Consecutive hard failures that open a lane's circuit breaker."""
        return max(1, self.env_int(ENV_SERVICE_BREAKER_THRESHOLD, 5))

    @property
    def service_breaker_reset_s(self) -> float:
        """Cool-down before an open breaker admits its half-open probe."""
        return max(0.0, self.env_float(ENV_SERVICE_BREAKER_RESET_S, 0.25))

    @property
    def service_timeout_s(self) -> float | None:
        """Default per-request queue deadline; ``0`` or negative disables
        deadlines entirely (requests wait as long as it takes)."""
        value = self.env_float(ENV_SERVICE_TIMEOUT_S, 60.0)
        return None if value <= 0 else value

    @property
    def service_workers(self) -> int | None:
        """Bounded backend-call slots shared by every lane of the broker
        (models one serving process's worker pool); ``0`` (default) means
        one slot per lane."""
        value = self.env_int(ENV_SERVICE_WORKERS, 0)
        return None if value <= 0 else value

    # -- run engine ----------------------------------------------------------

    @property
    def gen_concurrency(self) -> int:
        """In-flight candidate generations per :class:`GenerationBatch`.

        Values > 1 let broker-backed clients submit a round's candidates
        concurrently (so service lanes coalesce micro-batches); ``1``
        forces the sequential path.  Either way results are byte-identical
        — generation is keyed by ``(task, temperature, sample_index)``.
        """
        return max(1, self.env_int(ENV_GEN_CONCURRENCY, 8))

    # -- simulation engine ---------------------------------------------------

    @property
    def sim_engine(self) -> str:
        """Which simulation engine ``run_testbench`` uses.

        ``auto`` (default) picks the compiled fast path when the design is
        eligible and falls back to the event-driven simulator otherwise;
        ``event`` forces the event engine; ``compiled`` insists on the
        compiled path (still falling back for ineligible designs, so
        results never change — only speed).  Unrecognized values degrade
        to ``auto`` with a one-time warning.
        """
        raw = self.env_str(ENV_SIM_ENGINE).lower()
        if not raw:
            return "auto"
        if raw in _SIM_ENGINES:
            return raw
        _warn_once(
            f"{ENV_SIM_ENGINE} environment variable", raw,
            f"{ENV_SIM_ENGINE} environment variable value {raw!r} is not "
            f"one of {_SIM_ENGINES}; falling back to 'auto'")
        return "auto"

    # -- benchmarks ----------------------------------------------------------

    @property
    def full_eval(self) -> bool:
        return self.env_bool(ENV_FULL_EVAL, False)

    def snapshot(self) -> dict[str, object]:
        """Debug view of every knob (one line in ``repro.flows`` CLI)."""
        return {
            "jobs": self.resolve_jobs(),
            "hdl_cache": self.hdl_cache_enabled,
            "compile_cache_capacity": self.compile_cache_capacity,
            "result_cache_capacity": self.result_cache_capacity,
            "trace": self.trace_enabled,
            "trace_file": self.trace_file,
            "service": self.service_enabled,
            "service_batch_size": self.service_batch_size,
            "service_queue_capacity": self.service_queue_capacity,
            "service_max_retries": self.service_max_retries,
            "service_breaker_threshold": self.service_breaker_threshold,
            "service_breaker_reset_s": self.service_breaker_reset_s,
            "service_timeout_s": self.service_timeout_s,
            "service_workers": self.service_workers,
            "gen_concurrency": self.gen_concurrency,
            "sim_engine": self.sim_engine,
            "store": self.store_enabled,
            "store_dir": self.store_dir,
            "full_eval": self.full_eval,
            "critic": self.critic_enabled,
            "critic_judge": self.critic_judge_enabled,
        }


_settings = Settings()


def get_settings() -> Settings:
    """The process-wide settings reader."""
    return _settings


def reset_warned_values() -> None:
    """Forget which bad values already warned (tests only)."""
    _warned_values.clear()
