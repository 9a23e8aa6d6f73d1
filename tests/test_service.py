"""Broker, client-seam, and chaos tests for ``repro.service``."""

import threading
import time

import pytest

from repro.bench.problems import get_problem
from repro.llm.model import SimulatedLLM
from repro.obs import get_metrics
from repro.service import (BackendError, BrokerConfig, CircuitBreaker,
                           CircuitOpenError, FlakyBackend, LLMClient,
                           LoadShedError, ModelBroker, RequestTimeout,
                           ServiceClient, TransientBackendError,
                           get_default_broker, reset_default_broker,
                           resolve_client)


def make_task(problem_id="c2_gray"):
    from repro.bench.harness import make_task as mk
    return mk(get_problem(problem_id))


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class StubProfile:
    name = "stub-model"


class StubBackend:
    """Minimal broker backend with controllable blocking."""

    profile = StubProfile()

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.calls = []

    def work(self, value):
        self.calls.append(value)
        return value * 2

    def blocking_work(self, value):
        self.started.set()
        assert self.release.wait(timeout=5.0)
        return value


class TestCircuitBreaker:
    def test_opens_at_threshold_and_half_opens_on_schedule(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, reset_s=0.25, clock=clock)
        assert breaker.state == CircuitBreaker.CLOSED
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        clock.advance(0.25)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        # The half-open breaker admits exactly one probe; a second
        # concurrent submitter sees OPEN again until the probe resolves.
        assert breaker.allow()
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, reset_s=0.5, clock=clock)
        breaker.record_failure()
        clock.advance(0.5)
        assert breaker.allow()          # the probe
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()


class TestBrokerMechanics:
    def test_call_routes_to_backend(self):
        backend = StubBackend()
        with ModelBroker(BrokerConfig(request_timeout_s=None)) as broker:
            assert broker.call(backend, "work", (21,)) == 42
            assert broker.lane_names() == ["stub-model"]

    def test_submit_after_shutdown_raises(self):
        from repro.service import ServiceError
        broker = ModelBroker(BrokerConfig(request_timeout_s=None))
        broker.shutdown()
        with pytest.raises(ServiceError, match="shut down"):
            broker.submit(StubBackend(), "work", (1,))

    def test_load_shedding_on_full_queue(self):
        backend = StubBackend()
        cfg = BrokerConfig(queue_capacity=1, max_batch=1,
                           request_timeout_s=None)
        with ModelBroker(cfg) as broker:
            first = broker.submit(backend, "blocking_work", (1,))
            assert backend.started.wait(timeout=5.0)
            # Worker is blocked inside request 1; the next submission fills
            # the 1-slot queue and the one after that is shed.
            second = broker.submit(backend, "work", (2,))
            with pytest.raises(LoadShedError):
                broker.submit(backend, "work", (3,))
            backend.release.set()
            assert first.result(timeout=5.0) == 1
            assert second.result(timeout=5.0) == 4
        assert get_metrics().snapshot()["counters"]["service.shed"] >= 1

    def test_queued_request_past_deadline_times_out(self):
        clock = FakeClock()
        backend = StubBackend()
        cfg = BrokerConfig(max_batch=1, request_timeout_s=None)
        broker = ModelBroker(cfg, clock=clock)
        try:
            first = broker.submit(backend, "blocking_work", (1,))
            assert backend.started.wait(timeout=5.0)
            doomed = broker.submit(backend, "work", (2,), timeout=0.5)
            clock.advance(1.0)
            backend.release.set()
            assert first.result(timeout=5.0) == 1
            with pytest.raises(RequestTimeout):
                doomed.result(timeout=5.0)
        finally:
            backend.release.set()
            broker.shutdown()

    def test_breaker_opens_then_recovers_through_half_open(self):
        clock = FakeClock()
        llm = SimulatedLLM("gpt-4", seed=0)
        backend = FlakyBackend(llm, fail_first=2, seed=1)
        cfg = BrokerConfig(breaker_threshold=2, breaker_reset_s=0.25,
                           max_retries=0, request_timeout_s=None)
        broker = ModelBroker(cfg, clock=clock)
        try:
            task = make_task()
            for i in range(2):
                future = broker.submit(backend, "generate", (task,),
                                       {"sample_index": i})
                with pytest.raises(BackendError):
                    future.result(timeout=5.0)
            breaker = broker.breaker("gpt-4")
            assert breaker.state == CircuitBreaker.OPEN
            with pytest.raises(CircuitOpenError):
                broker.submit(backend, "generate", (task,))
            clock.advance(0.25)
            assert breaker.state == CircuitBreaker.HALF_OPEN
            # The half-open probe succeeds (fail_first budget spent) and
            # closes the breaker again.
            probe = broker.submit(backend, "generate", (task,),
                                  {"sample_index": 2})
            probe.result(timeout=5.0)
            assert breaker.state == CircuitBreaker.CLOSED
        finally:
            broker.shutdown()

    def test_transient_faults_are_retried_to_success(self):
        task = make_task()
        backend = FlakyBackend(SimulatedLLM("gpt-4", seed=3),
                               transient_rate=0.6, seed=5,
                               sleeper=lambda _dt: None)
        cfg = BrokerConfig(max_retries=50, backoff_base_s=0.0,
                           backoff_cap_s=0.0, request_timeout_s=None)
        before = get_metrics().snapshot()["counters"].get("service.retries", 0)
        with ModelBroker(cfg) as broker:
            client = ServiceClient(backend, broker=broker)
            generations = [client.generate(task, sample_index=i)
                           for i in range(4)]
        direct = SimulatedLLM("gpt-4", seed=3)
        assert generations == [direct.generate(task, sample_index=i)
                               for i in range(4)]
        after = get_metrics().snapshot()["counters"]["service.retries"]
        assert after > before

    def test_metrics_instrumented(self):
        backend = StubBackend()
        with ModelBroker(BrokerConfig(request_timeout_s=None)) as broker:
            for i in range(4):
                broker.call(backend, "work", (i,))
        snap = get_metrics().snapshot()
        assert snap["counters"]["service.requests"] >= 4
        assert "service.batch_size.stub-model" in snap["histograms"]
        assert "service.queue_depth.stub-model" in snap["gauges"]


class TestBrokerRaceRegressions:
    """Regression coverage for the four latent concurrency bugs fixed in
    the sharding PR (shed-consumes-probe, shutdown-vs-submit, deadline
    ignored across retries, dropped config knobs)."""

    def test_shed_does_not_consume_half_open_probe(self):
        # A shed submission must not spend (and re-arm) the half-open
        # probe: previously breaker.allow() ran before the capacity check,
        # so under sustained overload a lane's breaker stayed open forever.
        clock = FakeClock()
        backend = StubBackend()
        cfg = BrokerConfig(queue_capacity=1, max_batch=1,
                           breaker_threshold=1, breaker_reset_s=0.25,
                           request_timeout_s=None)
        broker = ModelBroker(cfg, clock=clock)
        try:
            blocker = broker.submit(backend, "blocking_work", (1,))
            assert backend.started.wait(timeout=5.0)
            filler = broker.submit(backend, "work", (2,))
            breaker = broker.breaker("stub-model")
            breaker.record_failure()                 # trip it (threshold 1)
            assert breaker.state == CircuitBreaker.OPEN
            clock.advance(0.25)
            assert breaker.state == CircuitBreaker.HALF_OPEN
            # Queue is full: the submission sheds and the probe survives.
            with pytest.raises(LoadShedError):
                broker.submit(backend, "work", (3,))
            assert breaker.state == CircuitBreaker.HALF_OPEN
            # With capacity back, a submission may spend the probe.  (The
            # drained filler's success closes the breaker, so re-trip it
            # to walk the probe path with room in the queue this time.)
            backend.release.set()
            assert blocker.result(timeout=5.0) == 1
            assert filler.result(timeout=5.0) == 4
            breaker.record_failure()
            clock.advance(0.25)
            assert breaker.state == CircuitBreaker.HALF_OPEN
            probe = broker.submit(backend, "work", (4,))
            assert probe.result(timeout=5.0) == 8
            assert breaker.state == CircuitBreaker.CLOSED
        finally:
            backend.release.set()
            broker.shutdown()

    def test_submit_racing_shutdown_never_strands_a_future(self):
        # Hammer submit from one thread while shutting down from another:
        # every submission must either resolve or raise ServiceError at
        # submit time — no future may be left forever pending.
        from repro.service import ServiceError
        for round_no in range(5):
            backend = StubBackend()
            broker = ModelBroker(BrokerConfig(request_timeout_s=None))
            futures = []
            barrier = threading.Barrier(2)

            def submitter():
                barrier.wait()
                for i in range(200):
                    try:
                        futures.append(broker.submit(backend, "work", (i,)))
                    except ServiceError:
                        return

            thread = threading.Thread(target=submitter)
            thread.start()
            barrier.wait()
            broker.shutdown()
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            for future in futures:
                # Admitted before the stop flag → drained by the worker.
                assert future.result(timeout=5.0) is not None

    def test_shutdown_fails_leftover_queued_futures(self):
        # A wedged worker can't drain its queue; shutdown must fail the
        # still-queued requests instead of leaving them pending forever.
        from repro.service import ServiceError
        backend = StubBackend()
        cfg = BrokerConfig(max_batch=1, queue_capacity=16,
                           request_timeout_s=None)
        broker = ModelBroker(cfg)
        wedged = broker.submit(backend, "blocking_work", (1,))
        assert backend.started.wait(timeout=5.0)
        queued = [broker.submit(backend, "work", (i,)) for i in range(4)]
        broker.shutdown(join_s=0.05)        # worker is stuck: join times out
        for future in queued:
            with pytest.raises(ServiceError, match="not drained"):
                future.result(timeout=5.0)
        snap = get_metrics().snapshot()["counters"]
        assert snap.get("service.failed_on_shutdown", 0) >= 4
        # The in-flight request still belongs to its worker.
        backend.release.set()
        assert wedged.result(timeout=5.0) == 1

    def test_deadline_rechecked_before_each_retry(self):
        # A transiently-failing request must stop retrying once its
        # deadline passes instead of burning the whole backoff schedule.
        clock = FakeClock()

        class AlwaysTransient:
            profile = StubProfile()
            calls = 0

            def work(self, value):
                AlwaysTransient.calls += 1
                raise TransientBackendError("flaky forever")

        cfg = BrokerConfig(max_retries=100, backoff_base_s=1.0,
                           backoff_cap_s=1.0, request_timeout_s=None)
        broker = ModelBroker(cfg, clock=clock, sleeper=clock.advance)
        try:
            future = broker.submit(AlwaysTransient(), "work", (1,),
                                   timeout=2.0)
            with pytest.raises(RequestTimeout, match="attempt"):
                future.result(timeout=5.0)
        finally:
            broker.shutdown()
        # Backoff sleeps advance the fake clock ~0.5-1.5 s each, so the
        # 2 s deadline cuts the 100-retry schedule to a handful of calls.
        assert AlwaysTransient.calls <= 5


class TestClientSeam:
    def test_resolve_string_returns_simulated_llm(self):
        client = resolve_client("gpt-4", seed=7, service=False)
        assert isinstance(client, SimulatedLLM)
        assert client.seed == 7
        assert isinstance(client, LLMClient)   # structural conformance

    def test_resolve_instance_passthrough(self):
        llm = SimulatedLLM("gpt-4", seed=3)
        assert resolve_client(llm, seed=999, service=False) is llm

    def test_resolve_service_wraps_once(self):
        with ModelBroker(BrokerConfig(request_timeout_s=None)) as broker:
            client = resolve_client("gpt-4", seed=1, service=True,
                                    broker=broker)
            assert isinstance(client, ServiceClient)
            again = resolve_client(client, service=True, broker=broker)
            assert again is client                # never double-wrapped
            assert isinstance(client, LLMClient)

    def test_resolve_reads_env_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE", "1")
        reset_default_broker()
        try:
            client = resolve_client("gpt-4", seed=0)
            assert isinstance(client, ServiceClient)
        finally:
            reset_default_broker()
        monkeypatch.setenv("REPRO_SERVICE", "off")
        assert isinstance(resolve_client("gpt-4", seed=0), SimulatedLLM)

    def test_brokered_calls_byte_identical_to_direct(self):
        task = make_task("c2_absdiff")
        direct = SimulatedLLM("gpt-4", seed=11)
        backend = SimulatedLLM("gpt-4", seed=11)
        with ModelBroker(BrokerConfig(request_timeout_s=None)) as broker:
            client = ServiceClient(backend, broker=broker)
            for i in range(3):
                assert client.generate(task, sample_index=i) \
                    == direct.generate(task, sample_index=i)
            d_gen = direct.generate(task, sample_index=9)
            b_gen = client.generate(task, sample_index=9)
            assert client.refine(task, b_gen, "FAIL: 1 of 4", 0.8, 1) \
                == direct.refine(task, d_gen, "FAIL: 1 of 4", 0.8, 1)
            assert client.apply_human_fix(task, b_gen) \
                == direct.apply_human_fix(task, d_gen)
        assert backend.usage == direct.usage

    def test_derive_and_chat_stay_brokered(self):
        with ModelBroker(BrokerConfig(request_timeout_s=None)) as broker:
            client = ServiceClient(SimulatedLLM("gpt-4", seed=0),
                                   broker=broker)
            derived = client.derive(5)
            assert isinstance(derived, ServiceClient)
            assert derived.broker is broker
            assert derived.seed == 5
            session = client.chat(system="hi")
            assert session.llm is client

    def test_default_broker_recreated_after_reset(self):
        reset_default_broker()
        first = get_default_broker()
        assert isinstance(first, ModelBroker)
        assert get_default_broker() is first
        reset_default_broker()
        second = get_default_broker()
        assert second is not first
        assert not second.stopped
        reset_default_broker()

    def test_default_broker_is_one_model_broker(self, monkeypatch):
        # A leftover REPRO_SERVICE_SHARDS setting must not change the broker.
        for shards in (None, "4"):
            if shards is None:
                monkeypatch.delenv("REPRO_SERVICE_SHARDS", raising=False)
            else:
                monkeypatch.setenv("REPRO_SERVICE_SHARDS", shards)
            reset_default_broker()
            try:
                assert type(get_default_broker()) is ModelBroker
            finally:
                reset_default_broker()


class SlotProbe:
    """Counts backend calls in flight across every backend sharing it."""

    def __init__(self):
        self.lock = threading.Lock()
        self.inflight = 0
        self.peak = 0
        self.release = threading.Event()

    def reached(self, n, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self.lock:
                if self.inflight >= n:
                    return True
            time.sleep(0.005)
        return False


class LaneBackend:
    """One lane's backend; every call blocks until the probe releases."""

    def __init__(self, name, probe):
        self.profile = type("Profile", (), {"name": name})()
        self.probe = probe

    def work(self, value):
        probe = self.probe
        with probe.lock:
            probe.inflight += 1
            probe.peak = max(probe.peak, probe.inflight)
        try:
            assert probe.release.wait(timeout=10.0)
        finally:
            with probe.lock:
                probe.inflight -= 1
        return value


class TestWorkerSlots:
    """``max_concurrent`` bounds backend calls across all of a broker's
    lanes; it is the capacity knob ``benchmarks/bench_service.py`` sweeps."""

    @pytest.mark.parametrize("slots,peak", [(1, 1), (2, 2), (3, 3),
                                            (None, 4)])
    def test_max_concurrent_bounds_in_flight_calls(self, slots, peak):
        probe = SlotProbe()
        backends = [LaneBackend(f"lane-{i}", probe) for i in range(4)]
        cfg = BrokerConfig(max_concurrent=slots, max_batch=1,
                           request_timeout_s=None)
        with ModelBroker(cfg) as broker:
            futures = [broker.submit(b, "work", (10 * i + n,))
                       for i, b in enumerate(backends) for n in range(3)]
            assert probe.reached(peak)
            time.sleep(0.1)       # room for an over-admitted call to enter
            assert probe.peak == peak
            probe.release.set()
            assert sorted(f.result(timeout=10.0) for f in futures) \
                == sorted(10 * i + n for i in range(4) for n in range(3))
        assert probe.peak == peak
        assert probe.inflight == 0


class TestServiceReport:
    def test_service_table_renders_broker_metrics(self):
        from repro import obs
        from repro.obs import report
        backend = StubBackend()
        with ModelBroker(BrokerConfig(request_timeout_s=None)) as broker:
            assert broker.call(backend, "work", (5,)) == 10
        snap = obs.get_metrics().snapshot()
        records = [dict(snap, type="metrics")]
        table = report.service_table(records)
        assert "service.requests" in table
        assert "service.batch_size.stub-model" in table    # per-lane row
        assert table in report.render(records)
        assert report.service_table([]) == ""


class TestServiceDeterminism:
    """REPRO_SERVICE=1 must run byte-identical to the direct path."""

    def test_slot_sweep_matches_direct(self):
        # Bounded slots only decide *when* a call runs: every slot count
        # returns the direct path's outputs and charges the same usage.
        task = make_task("c2_absdiff")
        models = ("gpt-4", "chatgpt-3.5", "gpt-4o", "cl-verilog-34b")
        direct = {m: SimulatedLLM(m, seed=11) for m in models}
        want = {m: [direct[m].generate(task, sample_index=i)
                    for i in range(3)] for m in models}
        for slots in (1, 2, None):
            cfg = BrokerConfig(max_concurrent=slots, request_timeout_s=None)
            backends = {m: SimulatedLLM(m, seed=11) for m in models}
            with ModelBroker(cfg) as broker:
                clients = {m: ServiceClient(backends[m], broker=broker)
                           for m in models}
                # Every lane in flight at once, so the slots are contended.
                futures = {m: [clients[m].submit_generate(task,
                                                          sample_index=i)
                               for i in range(3)] for m in models}
                got = {m: [f.result(timeout=10.0) for f in futures[m]]
                       for m in models}
            assert got == want, f"divergence at max_concurrent={slots}"
            for m in models:
                assert backends[m].usage == direct[m].usage

    @pytest.mark.slow
    def test_flow_suite_identical_with_service_enabled(self, monkeypatch):
        from repro.flows import run_structured_sweep, vrank
        problems = [get_problem("c2_gray"), get_problem("c2_absdiff")]

        def run_suite():
            sweep = run_structured_sweep("gpt-4", problems, seeds=(0, 1))
            ranked = vrank(problems[0], "chatgpt-3.5", n_candidates=4,
                           seed=2)
            return sweep, ranked

        monkeypatch.setenv("REPRO_SERVICE", "0")
        direct = run_suite()
        monkeypatch.setenv("REPRO_SERVICE", "1")
        reset_default_broker()
        try:
            brokered = run_suite()
        finally:
            reset_default_broker()
        assert direct == brokered

    @pytest.mark.slow
    def test_agent_identical_with_service_enabled(self, monkeypatch):
        from repro.core.agent import AgentConfig, EdaAgent
        problem = get_problem("c2_adder8")

        def run_agent():
            agent = EdaAgent(AgentConfig(model="chatgpt-3.5"), seed=4)
            return agent.run(problem)

        monkeypatch.setenv("REPRO_SERVICE", "0")
        direct = run_agent()
        monkeypatch.setenv("REPRO_SERVICE", "1")
        reset_default_broker()
        try:
            brokered = run_agent()
        finally:
            reset_default_broker()
        assert direct == brokered


class TestChaos:
    """Seeded fault injection: the broker converges through 30% faults."""

    @pytest.mark.slow
    def test_structured_flow_converges_through_30pct_transient_faults(self):
        from repro.flows.structured import StructuredFeedbackFlow
        problems = [get_problem("c2_gray"), get_problem("c2_adder8")]
        cfg = BrokerConfig(max_retries=8, backoff_base_s=0.0,
                           backoff_cap_s=0.0, request_timeout_s=None)

        def run(client):
            return [StructuredFeedbackFlow(client).run(p, seed=s)
                    for s in (0, 1) for p in problems]

        direct = run(SimulatedLLM("gpt-4", seed=6))
        flaky = FlakyBackend(SimulatedLLM("gpt-4", seed=6),
                             transient_rate=0.30, seed=42,
                             sleeper=lambda _dt: None)
        with ModelBroker(cfg) as broker:
            chaos = run(ServiceClient(flaky, broker=broker))
        assert chaos == direct
        assert flaky.faults_injected > 0

    @pytest.mark.slow
    def test_chaos_run_replays_byte_identically(self):
        llm_a = SimulatedLLM("gpt-4", seed=2)
        llm_b = SimulatedLLM("gpt-4", seed=2)
        cfg = BrokerConfig(max_retries=8, backoff_base_s=0.0,
                           backoff_cap_s=0.0, request_timeout_s=None)
        task = make_task("c2_absdiff")

        def run(llm):
            flaky = FlakyBackend(llm, transient_rate=0.30, seed=7,
                                 sleeper=lambda _dt: None)
            with ModelBroker(cfg) as broker:
                client = ServiceClient(flaky, broker=broker)
                out = [client.generate(task, sample_index=i)
                       for i in range(6)]
            return out, flaky.faults_injected

        # Identical inputs → identical outputs *and* fault schedule.
        out_a, faults_a = run(llm_a)
        out_b, faults_b = run(llm_b)
        assert out_a == out_b
        assert faults_a == faults_b
        assert faults_a > 0
