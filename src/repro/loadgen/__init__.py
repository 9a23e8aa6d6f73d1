"""``repro.loadgen`` — seeded traffic replay against the model broker.

Synthesizes sessions for thousands of simulated concurrent users (mixed
flow kinds, heavy-tailed deterministic arrival times), replays them
against one :class:`~repro.service.broker.ModelBroker`, and reports
p50/p95/p99 latency, shed rate, breaker trips and stranded futures.  See
``benchmarks/bench_service.py`` for the measured worker-slot curve and
``python -m repro.loadgen --help`` for the CLI.
"""

from .harness import LoadReport, run_load
from .workload import (DEFAULT_MODELS, FLOW_KINDS, Arrival, LoadBackend,
                       LoadConfig, build_schedule)

__all__ = [
    "Arrival", "DEFAULT_MODELS", "FLOW_KINDS", "LoadBackend", "LoadConfig",
    "LoadReport", "build_schedule", "run_load",
]
