"""Counter/Histogram metrics with a process-wide registry.

Metrics complement spans: spans answer "where did this run spend its
time", metrics answer "how many compile-cache hits / simulator events /
critic rejections did it accumulate".  Both stream into the same sink
(via :func:`repro.obs.flush_metrics`), so one JSONL trace carries the
full picture of a run.

Everything is thread-safe.  Process-pool workers record into their own
(forked) registry; :class:`repro.exec.ParallelEvaluator` ships each task's
counter deltas back and adds them here.
"""

from __future__ import annotations

import threading


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def add(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value


class Histogram:
    """Streaming summary statistics (count/total/min/max) of observations."""

    __slots__ = ("name", "count", "total", "min", "max", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0, "total": 0.0, "mean": 0.0,
                    "min": 0.0, "max": 0.0}
        return {"count": self.count, "total": round(self.total, 6),
                "mean": round(self.mean, 6), "min": round(self.min, 6),
                "max": round(self.max, 6)}


class Gauge:
    """Last-write-wins instantaneous value (queue depths, cache sizes)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float = 1.0) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        return self._value


class MetricsRegistry:
    """Get-or-create registry of named counters, gauges and histograms."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                c = self._counters[name] = Counter(name)
            return c

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            g = self._gauges.get(name)
            if g is None:
                g = self._gauges[name] = Gauge(name)
            return g

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                h = self._histograms[name] = Histogram(name)
            return h

    def snapshot(self) -> dict:
        """JSON-serializable view of every registered metric."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {n: c.value for n, c in sorted(counters.items())},
            "gauges": {n: g.value for n, g in sorted(gauges.items())},
            "histograms": {n: h.as_dict()
                           for n, h in sorted(histograms.items())},
        }

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


_default_registry = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _default_registry


def reset_metrics() -> None:
    """Drop all registered metrics (tests, bench harnesses)."""
    _default_registry.clear()
