"""Parallel evaluation engine for CPU-bound EDA-tool invocations.

LLM-for-EDA loops are gated by tool-invocation throughput: pass@k sampling,
VRank self-consistency clustering and trojan-detection sweeps all score
many *independent* candidates.  :meth:`ParallelEvaluator.map` runs them one
of two ways:

* **a plain serial loop** when ``jobs <= 1`` or there is at most one item;
* **a fork process pool** of ``jobs`` workers otherwise (fork, so worker
  state such as hash randomization matches the parent).  Results come back
  in submission order, so a pooled run assembles byte-identical statistics
  to the serial run.  Each pooled task ships back, with its result, the
  metric-counter deltas it recorded and its own run time; the parent adds
  the deltas, so counters read as they would serially, and records the run
  time as ``exec.task_run_s`` when tracing is on.

If the pool cannot start (``OSError``, or no fork start method), the map
runs the serial loop and warns once.  A callable that will not pickle is a
programming error, and its error propagates.

Workers come from the explicit ``jobs`` argument; unset means serial (1).
``jobs="auto"`` or any value < 0 means one worker per CPU.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable

from ..obs import get_metrics, get_tracer

# Warnings already given (bad ``jobs`` values, pool start), for the process
# lifetime.
_warned: set[tuple[str, str]] = set()


def _warn_once(key: tuple[str, str], message: str) -> None:
    if key not in _warned:
        _warned.add(key)
        warnings.warn(message, RuntimeWarning, stacklevel=3)


def reset_warned_values() -> None:
    """Forget which warnings were already given (tests only)."""
    _warned.clear()


def resolve_jobs(jobs: int | str | None = None) -> int:
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
                _warn_once(("jobs", jobs),
                           f"jobs argument value {jobs!r} is not an integer "
                           f"or 'auto'; falling back to serial evaluation "
                           f"(jobs=1)")
                return 1
    if jobs < 0:
        return max(1, os.cpu_count() or 1)
    return max(1, jobs)


def _run_task(fn: Callable[[Any], Any], item: Any) -> tuple:
    """Run one pooled task in its worker: ``(result, counter deltas, run
    seconds)``.  Deltas, because a forked worker inherits the parent's
    counts."""
    metrics = get_metrics()
    before = metrics.snapshot()["counters"]
    t0 = time.perf_counter()
    result = fn(item)
    run_s = time.perf_counter() - t0
    deltas = {name: value - before.get(name, 0)
              for name, value in metrics.snapshot()["counters"].items()
              if value != before.get(name, 0)}
    return result, deltas, run_s


def _serial(fn, work: list[Any], on_result) -> list[Any]:
    out = []
    for index, item in enumerate(work):
        result = fn(item)
        if on_result is not None:
            on_result(index, item, result)
        out.append(result)
    return out


class ParallelEvaluator:
    """Order-preserving map: a serial loop, or a fork process pool."""

    def __init__(self, jobs: int | str | None = None):
        self.jobs = resolve_jobs(jobs)

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any],
            on_result: Callable[[int, Any, Any], None] | None = None) \
            -> list[Any]:
        """Apply ``fn`` to every item; results in submission order.

        Worker exceptions propagate unchanged.  ``on_result(index, item,
        result)`` is invoked in the caller's process, in submission order,
        as each result lands — the checkpoint hook sweep journaling rides
        on.
        """
        work = list(items)
        with get_tracer().span("exec.map", jobs=self.jobs,
                               tasks=len(work)) as sp:
            if self.jobs <= 1 or len(work) <= 1:
                sp.set(worker_mode="serial")
                return _serial(fn, work, on_result)
            executor = None
            try:
                executor = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    mp_context=multiprocessing.get_context("fork"))
                futures = [executor.submit(_run_task, fn, item)
                           for item in work]
            except (OSError, ValueError) as exc:
                if executor is not None:
                    executor.shutdown(wait=True, cancel_futures=True)
                _warn_once(("pool", type(exc).__name__),
                           f"process pool could not start ({exc}); "
                           f"evaluating serially")
                sp.set(worker_mode="serial", fallback=str(exc)[:120])
                return _serial(fn, work, on_result)
            sp.set(worker_mode="process")
            with executor:
                return _collect(futures, work, on_result)


def _collect(futures, work: list[Any], on_result) -> list[Any]:
    """Results in submission order; merge each task's counter deltas."""
    metrics = get_metrics()
    run_s = metrics.histogram("exec.task_run_s") \
        if get_tracer().enabled else None
    out = []
    for index, (item, future) in enumerate(zip(work, futures)):
        result, deltas, seconds = future.result()
        for name, delta in deltas.items():
            metrics.counter(name).add(delta)
        if run_s is not None:
            run_s.observe(seconds)
            metrics.counter("exec.tasks").add(1)
        if on_result is not None:
            on_result(index, item, result)
        out.append(result)
    return out
