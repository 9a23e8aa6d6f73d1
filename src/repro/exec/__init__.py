"""``repro.exec`` — parallel evaluation engine.

Fans independent, CPU-bound tool invocations (testbench scoring, stimulus
co-simulation, trojan detection, whole sweep cells) out over a fork process
pool with deterministic result ordering and a ``jobs`` worker count (serial
by default, and then a plain loop).  The cell functions live next to the
flows that build their payloads.  See :mod:`repro.exec.parallel`.
"""

from .parallel import ParallelEvaluator, resolve_jobs
from .scheduler import SweepScheduler

__all__ = ["ParallelEvaluator", "SweepScheduler", "resolve_jobs"]
