"""``repro.config`` — one typed reader for every ``REPRO_*`` environment knob.

Before this module each subsystem parsed its own environment variables
(``repro.exec`` read ``REPRO_JOBS``, ``repro.obs`` read the trace
switches), each with slightly different falsy conventions and error
handling.  :class:`Settings` centralizes the parsing with three rules:

* accessors read ``os.environ`` **live**, so tests and operators can flip a
  knob mid-process (matching the pre-existing behaviour of every knob);
* unparseable non-empty values degrade to the documented default and emit a
  **one-time** ``RuntimeWarning`` naming the bad value and its source (the
  behaviour ``REPRO_JOBS`` pioneered, now uniform across all knobs);
* boolean knobs share one falsy set (``"", 0, false, no, off`` — case
  insensitive) so ``REPRO_TRACE=off`` and ``REPRO_CRITIC=off`` mean what
  they say.
"""

from __future__ import annotations

import os
import warnings

ENV_JOBS = "REPRO_JOBS"
ENV_TRACE = "REPRO_TRACE"
ENV_TRACE_FILE = "REPRO_TRACE_FILE"
ENV_FULL_EVAL = "REPRO_FULL_EVAL"
ENV_CRITIC = "REPRO_CRITIC"

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
        """``REPRO_CRITIC=1`` turns on the rule-based candidate critic."""
        return self.env_bool(ENV_CRITIC, False)

    # -- benchmarks ----------------------------------------------------------

    @property
    def full_eval(self) -> bool:
        return self.env_bool(ENV_FULL_EVAL, False)

    def snapshot(self) -> dict[str, object]:
        """Debug view of every knob (one line in ``repro.flows`` CLI)."""
        return {
            "jobs": self.resolve_jobs(),
            "trace": self.trace_enabled,
            "trace_file": self.trace_file,
            "full_eval": self.full_eval,
            "critic": self.critic_enabled,
        }


_settings = Settings()


def get_settings() -> Settings:
    """The process-wide settings reader."""
    return _settings


def reset_warned_values() -> None:
    """Forget which bad values already warned (tests only)."""
    _warned_values.clear()
