"""Sweep scheduler: pipelined generation + evaluation across sweep cells.

A sweep is a grid of independent runs — ``problems × seeds`` (or budgets,
models, mutations).  Each cell alternates between *generation* (model
calls) and *evaluation* (tool calls, CPU-bound, ideally spread across
cores).  A serial sweep interleaves the two phases one cell at a time, so
neither resource is ever saturated.

:class:`SweepScheduler` schedules whole cells concurrently under the
:class:`ParallelEvaluator`'s ``auto`` policy (process pool for CPU-bound
work, thread fallback).

Determinism: cells are independent by construction (each builds its own
client from ``(model, seed)``), results return in submission order, and a
generation is a pure function of its key — so a scheduled sweep's
statistics are byte-identical to the serial loop.  ``jobs`` resolves
through the usual chain (argument > ``REPRO_JOBS`` > serial), and the
serial default *is* the plain loop.

Checkpointing: when a :func:`repro.store.campaign_scope` is active, the
scheduler journals every completed cell to the checkpoint store as it lands
and — on a ``--resume`` run — replays the journaled prefix instead of
recomputing it.  A cell's checkpoint key mixes the campaign fingerprint,
the task function, the cell index and the cell's content hash, so a
checkpoint can only ever be replayed into the exact slot that produced it
and a resumed campaign is byte-identical to an uninterrupted one.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from ..obs import get_metrics, get_tracer
from ..store import MISS, CampaignJournal, content_key, current_journal
from .parallel import ParallelEvaluator


class SweepScheduler:
    """Order-preserving map over sweep cells; see the module docstring."""

    def __init__(self, jobs: int | str | None = None,
                 timeout: float | None = None):
        self.evaluator = ParallelEvaluator(jobs, timeout=timeout)

    @property
    def jobs(self) -> int:
        return self.evaluator.jobs

    @property
    def mode(self) -> str:
        return self.evaluator.mode

    def map(self, fn: Callable[[Any], Any], cells: Iterable[Any],
            timeout_result: Callable[[Any], Any] | None = None) -> list[Any]:
        """Run every cell; results in submission order."""
        work = list(cells)
        tracer = get_tracer()
        journal = current_journal()
        with tracer.span("exec.sweep", cells=len(work), jobs=self.jobs,
                         mode=self.mode) as sp:
            get_metrics().counter("exec.sweep_cells").add(len(work))
            if journal is None:
                return self.evaluator.map(fn, work,
                                          timeout_result=timeout_result)
            return self._checkpointed(fn, work, timeout_result, journal, sp)

    def _checkpointed(self, fn: Callable[[Any], Any], work: list[Any],
                      timeout_result, journal: CampaignJournal,
                      span) -> list[Any]:
        label = getattr(fn, "__qualname__", None) or str(fn)
        keys = [("cell", label, index, content_key(cell))
                for index, cell in enumerate(work)]
        results = [journal.lookup(*key) for key in keys]
        pending = [(index, cell)
                   for index, (cell, hit) in enumerate(zip(work, results))
                   if hit is MISS]

        def checkpoint(slot: int, _cell: Any, result: Any) -> None:
            index = pending[slot][0]
            journal.record(*keys[index], result)
            results[index] = result

        if pending:
            fresh = self.evaluator.map(fn, [cell for _, cell in pending],
                                       timeout_result=timeout_result,
                                       on_result=checkpoint)
            # Timeout placeholders bypass the checkpoint hook (an execution
            # accident must not be journaled as a cell outcome); fill their
            # slots from the returned list.
            for (index, _cell), result in zip(pending, fresh):
                if results[index] is MISS:
                    results[index] = result
        restored = len(work) - len(pending)
        span.set(restored=restored)
        if restored and get_tracer().enabled:
            get_metrics().counter("exec.sweep_cells_restored").add(restored)
        return results


def sweep_map(fn: Callable[[Any], Any], cells: Iterable[Any],
              jobs: int | str | None = None,
              timeout: float | None = None,
              timeout_result: Callable[[Any], Any] | None = None) -> list:
    """One-shot convenience wrapper around :class:`SweepScheduler`."""
    return SweepScheduler(jobs, timeout=timeout).map(
        fn, cells, timeout_result=timeout_result)
