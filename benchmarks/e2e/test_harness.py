"""Fast checks of the benchmark harness itself.

Run from the repository root with ``python3 -m pytest benchmarks/e2e``;
they take seconds.  They cover the span arithmetic, the p90 rule, the
patching of every binding, digest stability, the host-speed scaling, the
compare decisions and a ``--smoke`` pass of every workload.
"""

from __future__ import annotations

import itertools
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import cells  # noqa: E402
import compare  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = run.load_spec()


def test_self_time_subtracts_direct_children():
    # cell [0, 10] holds a [1, 6] (which holds b [2, 4]) and c [7, 9].
    tree = [("unattributed", 0.0, 10.0, -1, 0),
            ("llm:a", 1.0, 6.0, 0, 0),
            ("hdl.sim:b", 2.0, 4.0, 1, 0),
            ("llm:c", 7.0, 9.0, 0, 0)]
    assert spans.self_times(tree) == [3.0, 3.0, 2.0, 2.0]
    layers = spans.rollup(tree, {})
    assert (layers["llm.calls"], layers["llm.self_s"]) == (2, 5.0)
    assert layers["hdl.sim.self_s"] == 2.0
    assert layers["unattributed.self_s"] == 3.0
    assert sum(v for k, v in layers.items() if k.endswith(".self_s")) == 10.0


def test_recorder_nests_spans_and_skips_calls_outside_cells():
    recorder = spans.Recorder()
    inner = recorder.wrap("hdl.sim:inner", lambda: 1)
    outer = recorder.wrap("llm:outer", lambda: inner() + 1)
    assert outer() == 2
    assert recorder.spans == []
    with recorder.cell(7):
        assert outer() == 2
    assert [(s[0], s[3], s[4]) for s in recorder.spans] == [
        ("unattributed", -1, 7), ("llm:outer", 0, 7), ("hdl.sim:inner", 1, 7)]


def test_p90_needs_ten_samples_beyond_it():
    assert run.p90_ms([0.001] * 99) is None
    times = [i / 1000 for i in range(1, 101)]
    assert run.p90_ms(times) == pytest.approx(90.9)


def test_patch_wraps_every_binding_and_restores_it():
    import repro.hdl
    import repro.hdl.compile
    import repro.hdl.parser
    import repro.riscv.core
    parse = repro.hdl.parser.parse
    run_method = repro.riscv.core.Core.__dict__["run"]
    layers = {"hdl.compile": ("repro.hdl.parser:parse",),
              "riscv": ("repro.riscv.core:Core.run",)}
    recorder = spans.Recorder()
    with spans.patched(recorder, layers) as bindings:
        wrapper = repro.hdl.parser.parse
        assert wrapper is not parse
        assert repro.hdl.parse is wrapper
        assert repro.hdl.compile.parse is wrapper
        assert repro.riscv.core.Core.__dict__["run"] is not run_method
        assert bindings >= 4
        with recorder.cell(0):
            repro.hdl.compile.parse("module m; endmodule")
        assert recorder.spans[-1][0] == "hdl.compile:parse"
    assert repro.hdl.parser.parse is parse
    assert repro.hdl.compile.parse is parse
    assert repro.riscv.core.Core.__dict__["run"] is run_method
    for module in spans._repro_modules():
        for value in vars(module).values():
            assert getattr(value, "__wrapped__", None) is not parse


def test_every_entry_point_resolves():
    recorder = spans.Recorder()
    with spans.patched(recorder) as bindings:
        assert bindings >= sum(len(t) for t in spans.LAYERS.values())


def test_digests_match_runs_recorded_in_other_processes():
    expected = json.loads((HERE / "expected.json").read_text())
    recorded = expected["hls_flow"]["0"]
    for cell in itertools.islice(cells.stream("hls_flow", 0), 4):
        outcome = cells.execute(cell, recorded[cell.index])
        assert outcome.problems == [], cell.label


def test_corrupted_digest_is_counted_as_a_failure():
    cell = next(cells.stream("hls_flow", 0))
    outcome = cells.execute(cell, "0000000000")
    assert len(outcome.problems) == 1
    assert outcome.problems[0].startswith("digest ")
    payload = {"workload": "hls_flow", "seed": 0, "setup_s": 0.5,
               "digests_checked": 2, "process_peak_rss_mb": 30.0,
               "settings": {}, "probes": [[0.0, pace.NOMINAL_S]],
               "cells": [[cell.key, 0, outcome.seconds, True, 29.0,
                          outcome.digest, 0.0, None],
                         [cell.key, 0, outcome.seconds, not outcome.problems,
                          30.0, outcome.digest, outcome.seconds, None]]}
    accounted = run.account(payload, [(0.4, 0.4), (0.6, 0.6)])
    assert (accounted["failed"], accounted["fail_frac"]) == (1, 0.5)
    assert set(accounted["metrics"]) == {m["name"]
                                         for m in SPEC["end_to_end"]}


def test_times_are_scaled_by_the_nearby_probes():
    nominal = pace.NOMINAL_S
    # The host runs at nominal speed for the first second, then at half.
    probes = [(t / 10, nominal if t < 10 else 2 * nominal)
              for t in range(0, 30)]
    fast, slow = pace.slowdowns(probes, [(0.1, 0.2), (2.5, 2.6)])
    assert (fast, slow) == (1.0, 2.0)
    # Far from every probe, the nearest one speaks for the interval.
    assert pace.slowdowns(probes, [(9.0, 9.1)]) == [2.0]
    payload = {"workload": "w", "seed": 0, "setup_s": 0.5, "settings": {},
               "digests_checked": 0, "process_peak_rss_mb": 1.0,
               "probes": probes,
               "cells": [["a", 0, 0.010, True, 1.0, "", 0.1, None],
                         ["a", 1, 0.020, True, 1.0, "", 2.5, None],
                         ["a", 2, 0.020, True, 1.0, "", 2.8, None]]}
    accounted = run.account(payload, [(0.5, 0.25)])
    # The slow-spell cells took twice as long at half speed: same work.
    assert accounted["metrics"]["cell_p50_ms"] == pytest.approx(10.0)
    assert accounted["metrics"]["round_s"] == pytest.approx(0.010)
    assert accounted["metrics"]["setup_s"] == 0.25
    assert accounted["info"]["raw_cell_p50_ms"] == pytest.approx(20.0)
    assert accounted["info"]["host_slowdown"] == 2.0


def test_slt_times_are_read_per_unit_of_work():
    nominal = run.NOMINAL_WORK
    payload = {"workload": "slt_power", "seed": 0, "setup_s": 0.5,
               "settings": {}, "digests_checked": 0,
               "process_peak_rss_mb": 1.0, "probes": [(0.0, pace.NOMINAL_S)],
               # Twice the work in twice the time reads the same.
               "cells": [["slt_llm", 0, 1.0, True, 1.0, "", 0.0, nominal],
                         ["slt_llm", 1, 2.0, True, 1.0, "", 1.0, 2 * nominal],
                         ["slt_llm", 2, 0.5, True, 1.0, "", 3.0,
                          nominal // 2]]}
    accounted = run.account(payload, [(0.5, 0.5)])
    assert accounted["metrics"]["cell_p50_ms"] == pytest.approx(1000.0)
    assert accounted["metrics"]["round_s"] == pytest.approx(1.0)
    assert accounted["info"]["raw_cell_p50_ms"] == pytest.approx(1000.0)
    cell = next(cells.stream("slt_power", 0))
    assert cell.work is not None and cell.work() == 0   # not run yet


def test_sampler_probes_inside_a_busy_call_and_leaves_its_time_out():
    with pace.Sampler(seconds=0.3) as sampler:
        start, clock_start = time.perf_counter(), sampler.clock()
        while time.perf_counter() - start < 0.3:
            sum(i * i for i in range(1000))
        wall = time.perf_counter() - start
        work = sampler.clock() - clock_start
    probes = sampler.probes
    assert len(probes) >= 3
    assert all(start <= t <= start + wall and s > 0 for t, s in probes)
    # The clock stood still during the probes, and only during them.
    assert 0 < wall - work < len(probes) * 10 * max(s for _, s in probes)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_compare_bounds_and_unresolved():
    parent = [100.0 + i * 0.1 for i in range(10)]
    ok, _ = compare.decide(parent, [x * 1.05 for x in parent], True, 0.1)
    worse, by = compare.decide(parent, [x * 1.2 for x in parent], True, 0.1)
    assert (ok, worse) == ("ok", "REGRESSION")
    assert by == pytest.approx(0.2)
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 95.0]
    assert compare.decide(noisy, noisy, True, 0.1)[0] == "unresolved"
    # A change better than every parent run resolves despite the spread.
    assert compare.decide(noisy, [x / 3 for x in noisy], True, 0.1)[0] == "ok"


def test_compare_gates_p90_where_both_sides_report_it():
    def runs(p90: float | None) -> list[dict]:
        return [{"workload": "rtl_gen", "attempted": 100, "failed": 0,
                 "metrics": {m["name"]: 1.0 for m in SPEC["end_to_end"]},
                 "info": {} if p90 is None else {"cell_p90_ms": p90 + i / 1e3}}
                for i in range(5)]

    assert compare.compare_e2e(runs(10.0), runs(10.5), SPEC, set()) == 0
    assert compare.compare_e2e(runs(10.0), runs(12.0), SPEC, set()) == 1
    assert compare.compare_e2e(runs(None), runs(None), SPEC, set()) == 0


def test_compare_claim_rule():
    parent = [100.0 + i for i in range(10)]
    faster = [x * 0.8 for x in parent]
    assert compare.claim(parent, faster, True)[0]
    assert not compare.claim(parent[:9], faster[:9], True)[0]
    eight_wins = faster[:8] + [x * 1.01 for x in parent[8:]]
    assert not compare.claim(parent, eight_wins, True)[0]
    # Wins every pair, but by less than the parent's quartile distance.
    assert not compare.claim(parent, [x - 1 for x in parent], True)[0]
    # Direction: for a higher-is-better metric a faster time is a loss.
    assert not compare.claim(parent, faster, False)[0]


def test_traced_child_reports_every_per_layer_metric():
    payload = run.spawn("hls_flow", 0, 0, "--smoke", "--trace", "1")
    layers = payload["layers"]
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    accounted = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert accounted == pytest.approx(layers["trace.cell_s"], rel=0.02)
    assert layers["hls.calls"] > 0 and layers["riscv.calls"] == 0


def test_smoke_pass_of_every_workload():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert result["attempted"] == sum(len(cells.kinds(w))
                                      for w in cells.WORKLOADS)
