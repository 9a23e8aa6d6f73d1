"""Parallel evaluation engine for CPU-bound EDA-tool invocations.

LLM-for-EDA loops are gated by tool-invocation throughput: pass@k sampling,
VRank self-consistency clustering and trojan-detection sweeps all score
many *independent* candidates.  :class:`ParallelEvaluator` fans those
evaluations out over a ``concurrent.futures`` pool while guaranteeing:

* **deterministic ordering** — results come back in submission order, so a
  parallel run assembles byte-identical statistics to the serial run;
* **process-pool default** for CPU-bound simulation (fork start method where
  available so worker state — e.g. hash randomization — matches the parent),
  with a thread fallback when tasks are not picklable or process spawning is
  unavailable;
* **per-task timeouts** — a stuck evaluation yields ``timeout_result``
  instead of wedging the whole sweep.

Workers come from the explicit ``jobs`` argument; unset means serial (1).
``jobs="auto"`` or any value < 0 means one worker per CPU.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import (Future, ProcessPoolExecutor,
                                ThreadPoolExecutor, TimeoutError as
                                FutureTimeout)
from typing import Any, Callable, Iterable, Sequence

from ..config import get_settings
from ..obs import get_metrics, get_tracer

# Grace period for terminated workers to exit before they are SIGKILLed.
_REAP_GRACE_S = 5.0


def resolve_jobs(jobs: int | str | None = None) -> int:
    """Resolve a worker count from the ``jobs`` argument.

    Delegates to :class:`repro.config.Settings`: an unparseable value
    degrades to serial (1) but emits a one-time ``RuntimeWarning`` naming
    the bad value.
    """
    return get_settings().resolve_jobs(jobs)


class EvaluationTimeout(Exception):
    """A task exceeded the evaluator's per-task timeout."""


def _fork_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return None


class ParallelEvaluator:
    """Order-preserving map over a process (or thread) pool.

    ``mode`` is one of ``"auto"`` (process pool, thread fallback),
    ``"process"``, ``"thread"``, or ``"serial"``.  With one job the
    evaluator always degrades to a plain in-process loop, so the serial
    path stays byte-for-byte identical to the pre-parallel code.
    """

    def __init__(self, jobs: int | str | None = None, mode: str = "auto",
                 timeout: float | None = None):
        if mode not in ("auto", "process", "thread", "serial"):
            raise ValueError(f"unknown evaluator mode '{mode}'")
        self.jobs = resolve_jobs(jobs)
        self.mode = "serial" if self.jobs <= 1 else mode
        self.timeout = timeout

    # -- public -------------------------------------------------------------

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any],
            timeout_result: Callable[[Any], Any] | None = None,
            on_result: Callable[[int, Any, Any], None] | None = None) \
            -> list[Any]:
        """Apply ``fn`` to every item; results in submission order.

        On a per-task timeout, the slot receives ``timeout_result(item)``
        when provided, otherwise :class:`EvaluationTimeout` is raised.
        Worker exceptions propagate unchanged.

        ``on_result(index, item, result)`` is invoked in the caller's
        thread, in submission order, as each genuine result lands — the
        checkpoint hook sweep journaling rides on.  Timeout placeholders
        are *not* reported: a timeout is an execution accident, not a
        reproducible cell outcome, so it must never be journaled.
        """
        work = list(items)
        tracer = get_tracer()
        with tracer.span("exec.map", mode=self.mode, jobs=self.jobs,
                         tasks=len(work)) as sp:
            if self.mode == "serial" or len(work) <= 1:
                sp.set(worker_mode="serial")
                out = []
                for index, item in enumerate(work):
                    result = fn(item)
                    if on_result is not None:
                        on_result(index, item, result)
                    out.append(result)
                return out
            if self.mode in ("auto", "process"):
                try:
                    return self._pooled(self._process_executor(), fn, work,
                                        timeout_result, sp, "process",
                                        on_result)
                except (OSError, ValueError, TypeError, AttributeError,
                        ImportError) as exc:
                    if self.mode == "process":
                        raise
                    # Unpicklable closure / sandboxed platform: degrade to
                    # threads.
                    sp.set(fallback=str(exc)[:120])
                    return self._pooled(self._thread_executor(), fn, work,
                                        timeout_result, sp, "thread",
                                        on_result)
            return self._pooled(self._thread_executor(), fn, work,
                                timeout_result, sp, "thread", on_result)

    # -- internals ----------------------------------------------------------

    def _process_executor(self) -> ProcessPoolExecutor:
        ctx = _fork_context()
        if ctx is not None:
            return ProcessPoolExecutor(max_workers=self.jobs, mp_context=ctx)
        return ProcessPoolExecutor(max_workers=self.jobs)

    def _thread_executor(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(max_workers=self.jobs)

    def _pooled(self, executor, fn, work: Sequence[Any],
                timeout_result, span=None, worker_mode: str = "",
                on_result=None) -> list[Any]:
        tracer = get_tracer()
        observing = tracer.enabled
        latency = get_metrics().histogram("exec.task_latency_s") \
            if observing else None
        timeouts = 0
        t_submit = time.perf_counter()
        try:
            futures: list[Future] = [executor.submit(fn, item)
                                     for item in work]
            out: list[Any] = []
            for index, (item, future) in enumerate(zip(work, futures)):
                try:
                    result = future.result(timeout=self.timeout)
                    if on_result is not None:
                        on_result(index, item, result)
                    out.append(result)
                except FutureTimeout:
                    timeouts += 1
                    future.cancel()
                    if timeout_result is None:
                        raise EvaluationTimeout(
                            f"evaluation exceeded {self.timeout}s") from None
                    out.append(timeout_result(item))
                if latency is not None:
                    # Queue+run latency from fan-out to result availability.
                    latency.observe(time.perf_counter() - t_submit)
            return out
        finally:
            # A timed-out future cannot be cancelled once running and a
            # default shutdown blocks until the hung worker finishes, so a
            # stuck evaluation would wedge the whole sweep.  Shut down
            # without waiting and forcibly reap stuck process workers.
            self._shutdown(executor, force=timeouts > 0)
            if observing:
                metrics = get_metrics()
                metrics.counter("exec.tasks").add(len(work))
                if timeouts:
                    metrics.counter("exec.timeouts").add(timeouts)
                if span is not None:
                    span.set(worker_mode=worker_mode, timeouts=timeouts)

    @staticmethod
    def _shutdown(executor, force: bool) -> None:
        """Tear down a pool; ``force`` reaps workers instead of waiting."""
        if not force:
            executor.shutdown(wait=True)
            return
        # Snapshot the worker processes first: shutdown() clears
        # ``_processes`` even with ``wait=False``.
        processes = getattr(executor, "_processes", None)
        workers = list(processes.values()) if processes else []
        executor.shutdown(wait=False, cancel_futures=True)
        if not workers:
            # Thread pools cannot be force-killed; the cancelled futures
            # never start and the hung thread is abandoned to finish alone.
            return
        for proc in workers:
            proc.terminate()
        deadline = time.monotonic() + _REAP_GRACE_S
        for proc in workers:
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join(1.0)


def parallel_map(fn: Callable[[Any], Any], items: Iterable[Any],
                 jobs: int | str | None = None, mode: str = "auto",
                 timeout: float | None = None,
                 timeout_result: Callable[[Any], Any] | None = None) -> list:
    """One-shot convenience wrapper around :class:`ParallelEvaluator`."""
    return ParallelEvaluator(jobs, mode=mode, timeout=timeout).map(
        fn, items, timeout_result=timeout_result)
