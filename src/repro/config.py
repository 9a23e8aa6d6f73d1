"""``repro.config`` — one typed reader for every ``REPRO_*`` environment knob.

The knobs are ``REPRO_TRACE``, ``REPRO_TRACE_FILE`` and ``REPRO_CRITIC``,
and :class:`Settings` reads only them, with two rules:

* accessors read ``os.environ`` **live**, so tests and operators can flip a
  knob mid-process;
* boolean knobs share one falsy set (``"", 0, false, no, off`` — case
  insensitive) so ``REPRO_TRACE=off`` and ``REPRO_CRITIC=off`` mean what
  they say.  :meth:`Settings.env_bool` is public so benchmark options
  (``REPRO_FULL_EVAL`` in ``benchmarks/_util.py``) share the same set.

The ``jobs`` worker count is an argument, not a knob; it is resolved by
:func:`repro.exec.resolve_jobs`.
"""

from __future__ import annotations

import os

ENV_TRACE = "REPRO_TRACE"
ENV_TRACE_FILE = "REPRO_TRACE_FILE"
ENV_CRITIC = "REPRO_CRITIC"

_FALSY = ("", "0", "false", "no", "off")


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

