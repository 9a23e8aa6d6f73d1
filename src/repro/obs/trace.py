"""Span-based tracer: monotonic timers, nested spans, per-span attributes.

The tracer is the repo's substrate for operating loop-shaped flows
(AutoChip feedback rounds, the Fig. 5 SLT loop, HLS repair stages, the
Fig. 6 agent pipeline) at scale: every hot path opens a span, spans nest
via a per-thread stack, and finished spans stream to a pluggable sink.

Design constraints:

* **zero dependencies** — stdlib only;
* **no-op by default** — tracing is off unless the operator sets
  ``REPRO_TRACE`` or ``REPRO_TRACE_FILE``, and a disabled tracer hands out
  a shared immutable no-op span, so instrumentation never perturbs
  experiment statistics (tracing code touches no RNG and allocates nothing
  on the disabled path);
* **monotonic clocks** — span timing uses ``time.monotonic`` so wall-clock
  adjustments cannot produce negative durations.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .sinks import InMemorySink, JsonlSink, NullSink, Sink

@dataclass
class Span:
    """One timed operation.  ``start``/``end`` are monotonic seconds."""

    name: str
    span_id: int
    parent_id: int | None
    start: float
    end: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def set(self, **attrs: object) -> "Span":
        """Attach attributes; chainable."""
        self.attrs.update(attrs)
        return self

    def as_dict(self) -> dict:
        return {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": round(self.start, 6),
            "duration_s": round(self.duration_s, 6),
            "attrs": self.attrs,
        }


class _NoopSpan:
    """Shared do-nothing span handed out by a disabled tracer."""

    __slots__ = ()

    def set(self, **attrs: object) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Creates nested spans and streams finished ones to a sink.

    Nesting is tracked with a thread-local stack, so spans opened by
    worker threads parent correctly within that thread while concurrent
    threads never corrupt each other's context.
    """

    def __init__(self, sink: Sink | None = None, enabled: bool = True,
                 clock=time.monotonic):
        self.sink: Sink = sink if sink is not None else (
            InMemorySink() if enabled else NullSink())
        self.enabled = enabled
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- span lifecycle ------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @contextmanager
    def span(self, name: str, **attrs: object):
        """Open a span; closes (and emits) when the ``with`` block exits."""
        if not self.enabled:
            yield NOOP_SPAN
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        sp = Span(name=name, span_id=next(self._ids),
                  parent_id=parent.span_id if parent else None,
                  start=self._clock(), attrs=dict(attrs))
        stack.append(sp)
        try:
            yield sp
        except BaseException as exc:
            sp.attrs.setdefault("error", type(exc).__name__)
            raise
        finally:
            sp.end = self._clock()
            if stack and stack[-1] is sp:
                stack.pop()
            self.sink.emit(sp.as_dict())

    # -- raw records ---------------------------------------------------------

    def emit(self, record: dict) -> None:
        """Emit a non-span record (e.g. a metrics snapshot) to the sink."""
        if self.enabled:
            self.sink.emit(record)

    def close(self) -> None:
        self.sink.close()


# -- process-wide default tracer ---------------------------------------------

_default_tracer: Tracer | None = None
_tracer_lock = threading.Lock()


def _tracer_from_env() -> Tracer:
    from ..config import get_settings
    settings = get_settings()
    if not settings.trace_enabled:
        return Tracer(NullSink(), enabled=False)
    path = settings.trace_file
    sink: Sink = JsonlSink(path) if path else InMemorySink()
    return Tracer(sink, enabled=True)


def get_tracer() -> Tracer:
    """The process-wide tracer, configured from the environment on first use."""
    global _default_tracer
    if _default_tracer is None:
        with _tracer_lock:
            if _default_tracer is None:
                _default_tracer = _tracer_from_env()
    return _default_tracer


def install_tracer(tracer: Tracer) -> Tracer:
    """Replace the process-wide tracer (tests, bench harnesses)."""
    global _default_tracer
    with _tracer_lock:
        _default_tracer = tracer
    return tracer


def reset_tracer() -> None:
    """Drop the process-wide tracer so the next use re-reads the environment."""
    global _default_tracer
    with _tracer_lock:
        if _default_tracer is not None:
            _default_tracer.close()
        _default_tracer = None
