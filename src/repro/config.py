"""``repro.config`` — one typed reader for every ``REPRO_*`` environment knob.

The knobs are ``REPRO_TRACE``, ``REPRO_TRACE_FILE`` and ``REPRO_CRITIC``.
:class:`Settings` parses them, and the ``jobs`` worker count, with three
rules:

* accessors read ``os.environ`` **live**, so tests and operators can flip a
  knob mid-process;
* an unparseable ``jobs`` argument degrades to serial and emits a
  **one-time** ``RuntimeWarning`` naming the bad value;
* boolean knobs share one falsy set (``"", 0, false, no, off`` — case
  insensitive) so ``REPRO_TRACE=off`` and ``REPRO_CRITIC=off`` mean what
  they say.  :meth:`Settings.env_bool` is public so benchmark options
  (``REPRO_FULL_EVAL`` in ``benchmarks/_util.py``) share the same set.
"""

from __future__ import annotations

import os
import warnings

ENV_TRACE = "REPRO_TRACE"
ENV_TRACE_FILE = "REPRO_TRACE_FILE"
ENV_CRITIC = "REPRO_CRITIC"

_FALSY = ("", "0", "false", "no", "off")

# Bad ``jobs`` values already warned about, for the process lifetime.
_warned_values: set[str] = set()


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
        """Worker count from the ``jobs`` argument; ``None`` means serial (1).

        ``"auto"`` or any negative value means one worker per CPU.  An
        unparseable value degrades to serial but warns once, naming the bad
        value.
        """
        if jobs is None:
            return 1
        if isinstance(jobs, str):
            if jobs.lower() == "auto":
                jobs = -1
            else:
                try:
                    jobs = int(jobs)
                except ValueError:
                    if jobs not in _warned_values:
                        _warned_values.add(jobs)
                        warnings.warn(
                            f"jobs argument value {jobs!r} is not an integer "
                            f"or 'auto'; falling back to serial evaluation "
                            f"(jobs=1)", RuntimeWarning, stacklevel=3)
                    return 1
        if jobs < 0:
            return max(1, os.cpu_count() or 1)
        return max(1, jobs)

    # -- observability -------------------------------------------------------

    @property
    def trace_enabled(self) -> bool:
        """``REPRO_TRACE=1``, or a ``REPRO_TRACE_FILE`` to stream to."""
        return self.env_bool(ENV_TRACE, False) or bool(self.trace_file)

    @property
    def trace_file(self) -> str:
        return self.env_str(ENV_TRACE_FILE)

    # -- critic --------------------------------------------------------------

    @property
    def critic_enabled(self) -> bool:
        """``REPRO_CRITIC=1`` turns on the rule-based candidate critic."""
        return self.env_bool(ENV_CRITIC, False)

    def snapshot(self) -> dict[str, object]:
        """Debug view of every knob (one line in ``repro.flows`` CLI)."""
        return {
            "trace": self.trace_enabled,
            "trace_file": self.trace_file,
            "critic": self.critic_enabled,
        }


_settings = Settings()


def get_settings() -> Settings:
    """The process-wide settings reader."""
    return _settings


def reset_warned_values() -> None:
    """Forget which bad values already warned (tests only)."""
    _warned_values.clear()
