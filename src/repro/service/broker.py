"""In-process model-serving broker: micro-batching, retries, breakers.

The broker is the seam the ROADMAP's "serves heavy traffic" north star
needs between agents/flows and model backends.  Requests are submitted to
**per-model lanes** (keyed by model-profile name, the unit a real serving
deployment shards by); each lane has a bounded queue drained by one worker
that coalesces adjacent requests into micro-batches.  Around every backend
call the broker provides:

* **retry with exponential backoff + jitter** for transient backend errors
  (the jitter derives from the request's stable key, not the wall clock, so
  chaos tests replay exactly);
* a **circuit breaker** per lane — consecutive hard failures open the
  breaker, submissions fail fast while it is open, and after a cool-down a
  single half-open probe decides whether to close it again;
* **deadlines** — a request that waited in the queue past its deadline is
  failed with :class:`RequestTimeout` instead of wasting backend budget;
* **load shedding** — submissions beyond the bounded queue's capacity are
  rejected with :class:`LoadShedError` rather than growing memory without
  bound.

Everything is instrumented through :mod:`repro.obs`: a queue-depth gauge
and batch-size histogram per lane, plus process-wide request/retry/shed/
breaker counters.

Determinism: the broker adds **no randomness to results**.  A backend call
is a pure function of its arguments (see :class:`repro.llm.SimulatedLLM`,
whose per-request RNG derives from the request's stable seed), batching
only changes *when* a call runs, and usage accounting is commutative — so
broker-mediated statistics are byte-identical to direct calls.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable

from ..config import get_settings
from ..obs import get_metrics, get_tracer


class ServiceError(Exception):
    """Base class for broker-side request failures."""


class LoadShedError(ServiceError):
    """The lane's bounded queue is full; the request was shed."""


class CircuitOpenError(ServiceError):
    """The lane's circuit breaker is open; the request was rejected."""


class RequestTimeout(ServiceError):
    """The request missed its deadline before (or while) executing."""


class BackendError(Exception):
    """A hard backend failure; not retried, counts against the breaker."""


class TransientBackendError(BackendError):
    """A retryable backend failure (rate limit, flaky worker, ...)."""


def _stable_seed(*parts: object) -> int:
    from ..llm.model import _stable_seed as seed_fn
    return seed_fn(*parts)


class CircuitBreaker:
    """Classic closed → open → half-open breaker with an injectable clock."""

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

    def __init__(self, threshold: int = 5, reset_s: float = 0.25,
                 clock: Callable[[], float] = time.monotonic):
        self.threshold = max(1, threshold)
        self.reset_s = reset_s
        self._clock = clock
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._lock = threading.Lock()

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        if (self._state == self.OPEN
                and self._clock() - self._opened_at >= self.reset_s):
            self._state = self.HALF_OPEN

    def allow(self) -> bool:
        """Whether a new request may proceed; a half-open breaker admits
        exactly one probe (it re-opens or closes on the probe's outcome)."""
        with self._lock:
            self._maybe_half_open()
            if self._state == self.CLOSED:
                return True
            if self._state == self.HALF_OPEN:
                # Admit the probe and re-arm: a failure re-opens, a success
                # closes.  Concurrent submitters see OPEN until the outcome.
                self._state = self.OPEN
                self._opened_at = self._clock()
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._state = self.CLOSED

    def record_failure(self) -> bool:
        """Record a hard failure; returns True when this call *tripped* the
        breaker (a CLOSED→OPEN transition — re-opening after a failed
        half-open probe is the same outage, not a new trip)."""
        with self._lock:
            self._failures += 1
            was_open = self._state == self.OPEN
            if self._failures >= self.threshold or self._state != self.CLOSED:
                self._state = self.OPEN
                self._opened_at = self._clock()
            return self._state == self.OPEN and not was_open


@dataclass
class BrokerConfig:
    """Tuning knobs; defaults come from ``REPRO_SERVICE_*`` where set."""

    max_batch: int = 8
    batch_window_s: float = 0.002
    queue_capacity: int = 256
    max_retries: int = 3
    backoff_base_s: float = 0.001
    backoff_cap_s: float = 0.05
    breaker_threshold: int = 5
    breaker_reset_s: float = 0.25
    request_timeout_s: float | None = 60.0
    # Bounded executor slots shared by every lane of one broker (models a
    # single serving process's worker pool).  None = one slot per lane, the
    # historical unbounded behaviour.  Scheduling only — results identical.
    max_concurrent: int | None = None

    @classmethod
    def from_settings(cls) -> "BrokerConfig":
        s = get_settings()
        return cls(max_batch=s.service_batch_size,
                   queue_capacity=s.service_queue_capacity,
                   max_retries=s.service_max_retries,
                   breaker_threshold=s.service_breaker_threshold,
                   breaker_reset_s=s.service_breaker_reset_s,
                   request_timeout_s=s.service_timeout_s,
                   max_concurrent=s.service_workers)


@dataclass
class _Request:
    kind: str                       # 'generate' | 'refine' | 'human_fix'
    backend: object                 # the client's own backend instance
    args: tuple
    kwargs: dict
    key: int                        # stable per-request seed (jitter source)
    deadline: float | None
    future: Future = field(default_factory=Future)


class _Lane:
    """One model profile's bounded queue + worker thread + breaker."""

    def __init__(self, name: str, broker: "ModelBroker"):
        self.name = name
        self.broker = broker
        self.queue: deque[_Request] = deque()
        self.cond = threading.Condition()
        cfg = broker.config
        self.breaker = CircuitBreaker(cfg.breaker_threshold,
                                      cfg.breaker_reset_s,
                                      clock=broker.clock)
        self.worker = threading.Thread(target=self._run, daemon=True,
                                       name=f"repro-service-{name}")
        self.worker.start()

    # -- submission ----------------------------------------------------------

    def submit(self, request: _Request) -> Future:
        metrics = get_metrics()
        with self.cond:
            # Stop-flag check and enqueue are atomic under the lane
            # condition: the worker's exit check (`stopped and not queue`)
            # runs under the same condition, so a request admitted here is
            # guaranteed to be drained before the worker exits.
            if self.broker.stopped:
                raise ServiceError("broker is shut down")
            if len(self.queue) >= self.broker.config.queue_capacity:
                metrics.counter("service.shed").add()
                raise LoadShedError(
                    f"lane '{self.name}' queue full "
                    f"({self.broker.config.queue_capacity}); request shed")
            # Only after capacity is confirmed may the breaker spend its
            # half-open probe: a shed submission must never consume (and
            # re-arm) the probe, or a saturated lane could hold its breaker
            # open indefinitely with no backend call ever made.
            if not self.breaker.allow():
                metrics.counter("service.breaker_rejected").add()
                raise CircuitOpenError(
                    f"circuit breaker open for backend '{self.name}'")
            self.queue.append(request)
            metrics.gauge(f"service.queue_depth.{self.name}").set(
                len(self.queue))
            self.cond.notify()
        metrics.counter("service.requests").add()
        return request.future

    def fail_pending(self, exc: Exception) -> int:
        """Fail every still-queued request with ``exc`` (shutdown path).

        Only requests still in the queue are touched — a request already
        popped by the worker either completes normally or is failed by the
        worker itself, so there is no set_result/set_exception race.
        """
        failed = 0
        with self.cond:
            while self.queue:
                request = self.queue.popleft()
                if not request.future.done():
                    request.future.set_exception(exc)
                    failed += 1
            self.cond.notify_all()
        if failed:
            get_metrics().counter("service.failed_on_shutdown").add(failed)
        return failed

    # -- worker --------------------------------------------------------------

    def _run(self) -> None:
        cfg = self.broker.config
        metrics = get_metrics()
        while True:
            with self.cond:
                while not self.queue and not self.broker.stopped:
                    self.cond.wait(0.1)
                if self.broker.stopped and not self.queue:
                    return
                batch = [self.queue.popleft()]
                # Micro-batch: linger briefly for co-arriving requests.  The
                # linger is wall-time pacing, so it uses the real monotonic
                # clock even when a test injects a fake one for deadlines.
                linger_until = time.monotonic() + cfg.batch_window_s
                while len(batch) < cfg.max_batch:
                    if self.queue:
                        batch.append(self.queue.popleft())
                        continue
                    remaining = linger_until - time.monotonic()
                    if remaining <= 0 or self.broker.stopped:
                        break
                    self.cond.wait(remaining)
                metrics.gauge(f"service.queue_depth.{self.name}").set(
                    len(self.queue))
            metrics.histogram(f"service.batch_size.{self.name}").observe(
                len(batch))
            tracer = get_tracer()
            with tracer.span("service.batch", lane=self.name,
                             size=len(batch)):
                for request in batch:
                    self._execute(request)

    def _execute(self, request: _Request) -> None:
        cfg = self.broker.config
        metrics = get_metrics()
        if request.future.cancelled():
            return
        for attempt in range(cfg.max_retries + 1):
            # The deadline is re-checked before *every* attempt, not just at
            # dequeue: a request must not burn the remaining retry/backoff
            # schedule long past the point its caller stopped waiting.
            if (request.deadline is not None
                    and self.broker.clock() > request.deadline):
                metrics.counter("service.timeouts").add()
                where = "in queue" if attempt == 0 else \
                    f"after {attempt} attempt(s)"
                request.future.set_exception(RequestTimeout(
                    f"request to '{self.name}' missed its deadline {where}"))
                return
            try:
                method = getattr(request.backend, request.kind)
                result = self.broker._invoke(method, request)
            except TransientBackendError as exc:
                metrics.counter("service.retries").add()
                if attempt >= cfg.max_retries:
                    self._record_failure()
                    metrics.counter("service.failures").add()
                    request.future.set_exception(exc)
                    return
                self.broker.sleeper(self._backoff(request.key, attempt))
            except Exception as exc:
                self._record_failure()
                metrics.counter("service.failures").add()
                request.future.set_exception(exc)
                return
            else:
                self.breaker.record_success()
                request.future.set_result(result)
                return

    def _record_failure(self) -> None:
        if self.breaker.record_failure():
            get_metrics().counter("service.breaker_trips").add()

    def _backoff(self, key: int, attempt: int) -> float:
        """Exponential backoff with deterministic jitter.

        The jitter RNG seeds from the request key and attempt number, never
        the clock, so a replayed chaos run sleeps the exact same schedule.
        """
        import random
        cfg = self.broker.config
        base = min(cfg.backoff_cap_s, cfg.backoff_base_s * (2 ** attempt))
        jitter = random.Random(_stable_seed(key, "backoff", attempt)).random()
        return base * (0.5 + jitter)


class ModelBroker:
    """Routes requests to per-model lanes; see the module docstring."""

    def __init__(self, config: BrokerConfig | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 sleeper: Callable[[float], None] = time.sleep):
        self.config = config or BrokerConfig.from_settings()
        self.clock = clock
        self.sleeper = sleeper
        self.stopped = False
        self._lanes: dict[str, _Lane] = {}
        self._lock = threading.Lock()
        self._slots = (threading.BoundedSemaphore(self.config.max_concurrent)
                       if self.config.max_concurrent else None)

    # -- public --------------------------------------------------------------

    def submit(self, backend, kind: str, args: tuple = (),
               kwargs: dict | None = None, key: int = 0,
               timeout: float | None = None) -> Future:
        """Enqueue one backend call; returns a future for its result."""
        if self.stopped:
            raise ServiceError("broker is shut down")
        lane = self._lane(backend.profile.name)
        if timeout is None:
            timeout = self.config.request_timeout_s
        deadline = None if timeout is None else self.clock() + timeout
        request = _Request(kind=kind, backend=backend, args=args,
                           kwargs=kwargs or {}, key=key, deadline=deadline)
        return lane.submit(request)

    def call(self, backend, kind: str, args: tuple = (),
             kwargs: dict | None = None, key: int = 0,
             timeout: float | None = None):
        """Submit and block for the result (what :class:`ServiceClient`
        uses); re-raises broker and backend errors unchanged."""
        future = self.submit(backend, kind, args, kwargs, key=key,
                             timeout=timeout)
        # The lane enforces the queue deadline; the extra margin here only
        # guards against a wedged worker.
        wait = None if timeout is None else timeout * 2 + 1.0
        return future.result(timeout=wait)

    def breaker(self, name: str) -> CircuitBreaker:
        return self._lane(name).breaker

    def lane_names(self) -> list[str]:
        with self._lock:
            return sorted(self._lanes)

    def shutdown(self, join_s: float = 2.0) -> None:
        """Stop accepting work, wake every worker, and drain.

        Workers exit once their queue is empty, so queued requests normally
        complete.  If a worker fails to finish within ``join_s`` (a wedged
        backend), any request still *queued* is failed with
        :class:`ServiceError` — no future is ever left forever pending.
        A request already in flight is left to its worker, which either
        completes it or fails it itself.
        """
        self.stopped = True
        with self._lock:
            lanes = list(self._lanes.values())
        for lane in lanes:
            with lane.cond:
                lane.cond.notify_all()
        for lane in lanes:
            lane.worker.join(timeout=join_s)
        for lane in lanes:
            lane.fail_pending(ServiceError(
                f"broker shut down with lane '{lane.name}' not drained"))

    def __enter__(self) -> "ModelBroker":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- internals -----------------------------------------------------------

    def _lane(self, name: str) -> _Lane:
        with self._lock:
            lane = self._lanes.get(name)
            if lane is None:
                lane = self._lanes[name] = _Lane(name, self)
            return lane

    def _invoke(self, method, request: _Request):
        """Run one backend call, holding a worker slot when the broker's
        executor is bounded (``max_concurrent``).  Slots are held only for
        the call itself, never across backoff sleeps."""
        if self._slots is None:
            return method(*request.args, **request.kwargs)
        with self._slots:
            return method(*request.args, **request.kwargs)


# -- process-wide default broker ----------------------------------------------

_default_broker = None
_broker_lock = threading.Lock()


def get_default_broker() -> ModelBroker:
    """The process-wide broker, created lazily from settings on first use."""
    global _default_broker
    if _default_broker is None or _default_broker.stopped:
        with _broker_lock:
            if _default_broker is None or _default_broker.stopped:
                _default_broker = ModelBroker()
    return _default_broker


def reset_default_broker() -> None:
    """Shut down and drop the process-wide broker (tests, reconfiguration)."""
    global _default_broker
    with _broker_lock:
        if _default_broker is not None:
            _default_broker.shutdown()
        _default_broker = None
