"""The load harness: replay a seeded schedule against one model broker.

One dispatcher thread walks the time-sorted schedule from
:func:`~repro.loadgen.workload.build_schedule`, sleeps until each arrival
(scaled by ``time_scale``), and fires the request at the broker
**without blocking** — completion is observed through future callbacks, so
thousands of simulated users cost one thread plus the broker's own lane
workers.  Every submission is accounted for exactly once:

``ok``                completed with a result
``shed``              rejected at submit (lane queue full)
``breaker_rejected``  rejected at submit (lane breaker open)
``timeout``           future failed with :class:`RequestTimeout`
``failed``            future failed with a backend/hard error
``stranded``          future still pending after drain + shutdown —
                      **must be zero**; a nonzero count is the
                      shutdown-races-submit bug the broker fixes guard

Latency is measured from the request's *intended* arrival time to its
completion, so dispatcher lag under overload shows up in the percentiles
exactly as a user would feel it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field

from ..obs import get_metrics
from ..service.broker import (BrokerConfig, CircuitOpenError, LoadShedError,
                              ModelBroker, RequestTimeout, ServiceError)
from .workload import Arrival, LoadBackend, LoadConfig, build_schedule, \
    method_for

_DELTA_COUNTERS = ("service.breaker_trips", "service.retries",
                   "service.failed_on_shutdown")


@dataclass
class LoadReport:
    """Outcome of one campaign replay at one worker-slot count."""

    users: int
    workers: int | None          # the broker's max_concurrent (None = 1/lane)
    requests: int
    ok: int = 0
    shed: int = 0
    breaker_rejected: int = 0
    timeout: int = 0
    failed: int = 0
    stranded: int = 0
    wall_s: float = 0.0
    throughput_rps: float = 0.0
    shed_rate: float = 0.0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    max_ms: float = 0.0
    breaker_trips: int = 0
    retries: int = 0
    failed_on_shutdown: int = 0
    per_tenant_ok: dict = field(default_factory=dict)

    def accounted(self) -> int:
        return (self.ok + self.shed + self.breaker_rejected + self.timeout
                + self.failed + self.stranded)

    def as_dict(self) -> dict:
        return asdict(self)


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def run_load(cfg: LoadConfig, *,
             broker_config: BrokerConfig | None = None) -> LoadReport:
    """Replay ``cfg``'s schedule against one :class:`ModelBroker`.

    The broker is built from ``broker_config`` and shut down at the end of
    the replay, because the zero-stranded-futures check is only meaningful
    after drain.  The schedule itself is deterministic; the measured
    latencies are the experiment.
    """
    schedule = build_schedule(cfg)
    backends = {}
    for arrival in schedule:
        if arrival.model not in backends:
            backends[arrival.model] = LoadBackend(arrival.model, cfg)
    broker = ModelBroker(broker_config or BrokerConfig())
    report = LoadReport(users=cfg.users,
                        workers=broker.config.max_concurrent,
                        requests=len(schedule))
    metrics = get_metrics()
    before = metrics.snapshot()["counters"]

    lock = threading.Lock()
    latencies: list[float] = []
    futures: list = []

    def finish(arrival: Arrival, target_wall: float):
        def _cb(future):
            done_wall = time.perf_counter()
            exc = future.exception()
            with lock:
                if exc is None:
                    report.ok += 1
                    latencies.append((done_wall - target_wall) * 1e3)
                    per = report.per_tenant_ok
                    per[arrival.tenant] = per.get(arrival.tenant, 0) + 1
                elif isinstance(exc, RequestTimeout):
                    report.timeout += 1
                else:
                    report.failed += 1
        return _cb

    t0 = time.perf_counter()
    scale = max(1e-9, cfg.time_scale)
    for arrival in schedule:
        target = t0 + arrival.t / scale
        now = time.perf_counter()
        if target > now:
            time.sleep(target - now)
        try:
            future = broker.submit(
                backends[arrival.model], method_for(arrival.kind),
                (arrival.req_id,), key=arrival.req_id,
                timeout=cfg.request_timeout_s / scale)
        except CircuitOpenError:
            with lock:
                report.breaker_rejected += 1
            continue
        except LoadShedError:
            with lock:
                report.shed += 1
            continue
        except ServiceError:
            with lock:
                report.failed += 1
            continue
        future.add_done_callback(finish(arrival, max(target, now)))
        futures.append(future)

    # Drain: wait out the in-flight tail, then shut the broker down (which
    # fails anything still queued) and count what is *still* pending.
    grace = time.perf_counter() + 2.0 * cfg.request_timeout_s / scale + 2.0
    for future in futures:
        remaining = grace - time.perf_counter()
        if remaining <= 0:
            break
        try:
            future.result(timeout=remaining)
        except Exception:
            pass
    broker.shutdown()
    deadline = time.perf_counter() + 1.0
    for future in futures:
        if not future.done() and time.perf_counter() < deadline:
            try:
                future.result(timeout=max(0.0,
                                          deadline - time.perf_counter()))
            except Exception:
                pass
    report.stranded = sum(1 for f in futures if not f.done())

    wall = time.perf_counter() - t0
    after = metrics.snapshot()["counters"]
    for name in _DELTA_COUNTERS:
        delta = after.get(name, 0) - before.get(name, 0)
        setattr(report, name.split(".", 1)[1].replace(".", "_"), delta)
    report.wall_s = round(wall, 3)
    report.throughput_rps = round(report.ok / wall, 1) if wall else 0.0
    report.shed_rate = round(report.shed / max(1, report.requests), 4)
    latencies.sort()
    report.p50_ms = round(_percentile(latencies, 0.50), 2)
    report.p95_ms = round(_percentile(latencies, 0.95), 2)
    report.p99_ms = round(_percentile(latencies, 0.99), 2)
    report.max_ms = round(latencies[-1], 2) if latencies else 0.0
    return report
