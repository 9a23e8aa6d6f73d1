"""Service load benchmark: worker-slot capacity curve with SLOs.

Replays the same seeded ``repro.loadgen`` campaign — 1000+ simulated users,
mixed flow kinds, heavy-tailed arrivals, one deliberately flaky model lane
— against one model broker at increasing worker-slot counts
(``BrokerConfig.max_concurrent``), and records p50/p95/p99 latency, shed
rate, breaker trips and sustained throughput in ``BENCH_service.json`` at
the repo root.

Backend calls are simulated latencies, so capacity is the number of calls
the broker lets overlap: the offered load saturates 2 slots and fits in 8.
The schedule is identical across slot counts; only capacity changes.

Hard checks: **zero stranded futures** in every run (the shutdown-vs-submit
and shed-vs-probe fixes guard this), every submission accounted for in
exactly one outcome bucket, and — in full mode — at least **2x sustained
throughput at 8 slots vs 2**.

Run standalone (``python benchmarks/bench_service.py``), in CI smoke form
(``--smoke``: fewer users, 2 and 4 slots, no speedup floor), or via
pytest (``pytest benchmarks/bench_service.py -s``).
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from _util import print_table  # noqa: E402

from repro.loadgen import LoadConfig, run_load  # noqa: E402
from repro.service import BrokerConfig  # noqa: E402

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_OUT_PATH = os.path.join(_REPO_ROOT, "BENCH_service.json")

# Small bounded lane queues and a 2 s request deadline; ``max_concurrent``
# is the swept variable.  The campaign's offered load (~1200 rps at 8 ms
# mean service time ≈ 9.6 erlangs) saturates 2 slots and fits in 8 — that
# head-room gap is the curve.
_BROKER_CONFIG = dict(queue_capacity=64, request_timeout_s=2.0,
                      breaker_threshold=5, breaker_reset_s=0.25)


def _campaign(smoke: bool) -> LoadConfig:
    if smoke:
        return LoadConfig(users=200, seed=7, duration_s=1.5,
                          service_time_ms=8.0, time_scale=1.5)
    return LoadConfig(users=1200, seed=7, duration_s=4.0,
                      service_time_ms=8.0)


def bench_slot_scaling(smoke: bool) -> dict:
    cfg = _campaign(smoke)
    slot_counts = (2, 4) if smoke else (2, 4, 8)
    results: dict[str, dict] = {}
    for slots in slot_counts:
        report = run_load(cfg, broker_config=BrokerConfig(
            max_concurrent=slots, **_BROKER_CONFIG))
        assert report.stranded == 0, (
            f"{report.stranded} stranded futures at {slots} slot(s)")
        assert report.accounted() == report.requests, (
            f"accounting leak at {slots} slot(s): "
            f"{report.accounted()} != {report.requests}")
        results[str(slots)] = report.as_dict()
    base = results[str(slot_counts[0])]["throughput_rps"]
    top = results[str(slot_counts[-1])]["throughput_rps"]
    speedup = round(top / base, 2) if base else 0.0
    return {
        "smoke": smoke,
        "users": cfg.users,
        "requests": results[str(slot_counts[0])]["requests"],
        "mix": "vrank/autochip/chat/structured sessions, 8 model lanes + "
               "1 flaky lane, heavy-tailed Pareto arrivals and service "
               "times",
        "broker_config": dict(_BROKER_CONFIG),
        "workers": results,
        "throughput_speedup": speedup,
    }


def main(argv=None) -> dict:
    smoke = "--smoke" in (sys.argv[1:] if argv is None else argv)
    data = {"cpus": os.cpu_count(),
            "slot_scaling": bench_slot_scaling(smoke)}
    with open(_OUT_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    sc = data["slot_scaling"]
    print_table(
        "E-service: loadgen campaign vs worker slots",
        ["workers", "ok", "rps", "p50 ms", "p95 ms", "p99 ms",
         "shed rate", "trips", "stranded"],
        [[n, r["ok"], r["throughput_rps"], r["p50_ms"], r["p95_ms"],
          r["p99_ms"], r["shed_rate"], r["breaker_trips"], r["stranded"]]
         for n, r in sorted(sc["workers"].items(), key=lambda kv: int(kv[0]))])
    print_table("E-service: summary",
                ["users", "requests", "speedup", "smoke"],
                [[sc["users"], sc["requests"], sc["throughput_speedup"],
                  sc["smoke"]]])
    if not smoke:
        assert sc["users"] >= 1000
        assert sc["throughput_speedup"] >= 2.0, (
            f"8-slot speedup {sc['throughput_speedup']} < 2.0")
    return data


def test_service_scaling(benchmark=None):
    sc = main(["--smoke"])["slot_scaling"]
    for report in sc["workers"].values():
        assert report["stranded"] == 0
    assert sc["throughput_speedup"] > 0


if __name__ == "__main__":
    main()
