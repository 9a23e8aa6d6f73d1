"""Loadgen tests: schedule determinism and harness accounting."""

from repro.loadgen import LoadConfig, build_schedule, run_load
from repro.loadgen.workload import FLOW_KINDS, LoadBackend, method_for
from repro.service import BrokerConfig


def _small(**overrides):
    base = dict(users=40, seed=3, duration_s=0.5, service_time_ms=2.0,
                request_timeout_s=1.0, time_scale=4.0)
    base.update(overrides)
    return LoadConfig(**base)


class TestSchedule:
    def test_schedule_is_a_pure_function_of_the_seed(self):
        cfg = _small()
        assert build_schedule(cfg) == build_schedule(cfg)
        assert build_schedule(cfg) != build_schedule(_small(seed=4))

    def test_schedule_is_time_sorted_and_within_duration(self):
        schedule = build_schedule(_small())
        times = [a.t for a in schedule]
        assert times == sorted(times)
        assert all(t >= 0.0 for t in times)
        assert schedule, "empty schedule"

    def test_arrivals_cover_tenants_and_flow_kinds(self):
        schedule = build_schedule(_small(users=200, duration_s=1.0))
        assert {a.flow for a in schedule} <= set(FLOW_KINDS)
        assert {a.kind for a in schedule} <= {"generate", "refine",
                                              "human_fix"}
        assert len({a.tenant for a in schedule}) > 1
        assert len({a.req_id for a in schedule}) == len(schedule)

    def test_hog_tenant_dominates_when_enabled(self):
        schedule = build_schedule(_small(users=200, duration_s=1.0))
        by_tenant: dict[str, int] = {}
        for a in schedule:
            by_tenant[a.tenant] = by_tenant.get(a.tenant, 0) + 1
        hog = max(by_tenant, key=by_tenant.get)
        others = [n for t, n in by_tenant.items() if t != hog]
        assert by_tenant[hog] > max(others)

    def test_method_for_covers_every_request_kind(self):
        backend = LoadBackend("gpt-4", _small())
        for kind in ("generate", "refine", "human_fix"):
            assert hasattr(backend, method_for(kind))


class TestHarness:
    def test_small_run_accounts_for_every_submission(self):
        cfg = _small()
        report = run_load(cfg,
                          broker_config=BrokerConfig(
                              queue_capacity=32, max_concurrent=2,
                              request_timeout_s=1.0))
        assert report.stranded == 0
        assert report.requests == len(build_schedule(cfg))
        assert report.accounted() == report.requests
        assert report.ok > 0
        assert report.workers == 2
        total_per_tenant = sum(report.per_tenant_ok.values())
        assert total_per_tenant == report.ok

    def test_report_dict_round_trips_the_slo_fields(self):
        report = run_load(_small(users=10),
                          broker_config=BrokerConfig(
                              queue_capacity=32, request_timeout_s=1.0))
        data = report.as_dict()
        for key in ("p50_ms", "p95_ms", "p99_ms", "shed_rate",
                    "throughput_rps", "breaker_trips", "stranded"):
            assert key in data
        assert data["stranded"] == 0
