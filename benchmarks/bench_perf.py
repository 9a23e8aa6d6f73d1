"""Perf trajectory benchmark: compile cache + parallel evaluation engine.

Measures the hot path every flow bottoms out in — ``run_testbench`` —
cold vs cached and on both simulation engines, checks that a parallel
``evaluate_model`` returns exactly the serial samples, and writes
``BENCH_perf.json`` at the repo root so future PRs have a throughput
baseline to regress against.  (Parallel wall-clock is not reported: at
this size it measures process-pool start-up, not evaluation.)

Run standalone (``python benchmarks/bench_perf.py``) or via pytest
(``pytest benchmarks/bench_perf.py -s``).  ``REPRO_FULL_EVAL=1`` raises the
iteration budgets.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from _util import full_eval, print_table  # noqa: E402

from repro import obs  # noqa: E402
from repro.bench import all_problems, evaluate_model  # noqa: E402
from repro.hdl import (CompileCache, compile_design, compile_program,  # noqa: E402
                       run_testbench)
from repro.hdl.testbench import _simulate, _simulate_compiled  # noqa: E402
from repro.obs import report as obs_report  # noqa: E402

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_OUT_PATH = os.path.join(_REPO_ROOT, "BENCH_perf.json")
_TELEMETRY_PATH = os.path.join(_REPO_ROOT, "BENCH_telemetry.json")


def _rate(count: int, elapsed: float) -> float:
    return count / elapsed if elapsed > 0 else float("inf")


def bench_compile(iters: int) -> dict:
    """compiles/sec: cold front-end vs content-addressed cache hit."""
    problem = all_problems()[3]
    units = (problem.reference, problem.testbench)
    t0 = time.perf_counter()
    for _ in range(iters):
        compile_design(units, problem.tb_name, cache=CompileCache())
    cold = time.perf_counter() - t0
    warm_cache = CompileCache()
    compile_design(units, problem.tb_name, cache=warm_cache)  # prime
    t0 = time.perf_counter()
    for _ in range(iters):
        compile_design(units, problem.tb_name, cache=warm_cache)
    cached = time.perf_counter() - t0
    return {"iters": iters,
            "cold_per_sec": round(_rate(iters, cold), 1),
            "cached_per_sec": round(_rate(iters, cached), 1),
            "speedup": round(cold / cached, 2) if cached else float("inf")}


def bench_run_testbench(iters: int) -> dict:
    """runs/sec on a repeated identical candidate/testbench pair."""
    problem = all_problems()[3]
    t0 = time.perf_counter()
    for _ in range(iters):
        run_testbench(problem.reference, problem.tb_name,
                      tb_source=problem.testbench, cache=CompileCache())
    cold = time.perf_counter() - t0
    warm_cache = CompileCache()
    run_testbench(problem.reference, problem.tb_name,
                  tb_source=problem.testbench, cache=warm_cache)  # prime
    t0 = time.perf_counter()
    for _ in range(iters):
        run_testbench(problem.reference, problem.tb_name,
                      tb_source=problem.testbench, cache=warm_cache)
    cached = time.perf_counter() - t0
    return {"iters": iters,
            "cold_per_sec": round(_rate(iters, cold), 1),
            "cached_per_sec": round(_rate(iters, cached), 1),
            "speedup": round(cold / cached, 2) if cached else float("inf")}


# Sim-heavy design for the engine comparison: a 32-bit xorshift LFSR plus
# accumulator clocked for thousands of edges, so simulation (not the
# front-end) dominates.  The clock pulses once while reset is high so the
# datapath comes out of X and both engines run fully defined values.
_SIM_HEAVY_SRC = """
module alu_step(input clk, input rst, output reg [31:0] acc,
                output reg [31:0] lfsr);
  reg [31:0] t;
  always @(posedge clk) begin
    if (rst) begin
      acc <= 32'h0;
      lfsr <= 32'hace1;
    end else begin
      t = lfsr ^ (lfsr << 13);
      t = t ^ (t >> 17);
      t = t ^ (t << 5);
      lfsr <= t;
      acc <= acc + (t & 32'hffff) - (acc >> 3) + ((t >> 16) * 32'd3);
    end
  end
endmodule
module tb();
  reg clk;
  reg rst;
  wire [31:0] acc;
  wire [31:0] lfsr;
  alu_step u0(.clk(clk), .rst(rst), .acc(acc), .lfsr(lfsr));
  initial begin
    clk = 0;
    rst = 1;
    #1 clk = 1;
    #1 clk = 0;
    rst = 0;
    repeat (4000) begin
      #1 clk = ~clk;
    end
    $display("acc=%h lfsr=%h", acc, lfsr);
    if (acc != 32'h0) $display("PASS: datapath settled at %h", acc);
    else $display("FAIL: acc=%h", acc);
    $finish;
  end
endmodule
"""


def bench_sim_engines(iters: int) -> dict:
    """Simulation throughput: event engine vs compiled fast path.

    Both engines run the same primed design (the compiled one its primed
    program), so only simulation is timed; each iteration uses a fresh
    seed, and every compiled result must equal the event engine's.
    """
    design = compile_design(_SIM_HEAVY_SRC, "tb", cache=CompileCache()).design
    program = compile_program(design)
    max_time = 200_000
    t0 = time.perf_counter()
    event = [_simulate(design, max_time, i + 1) for i in range(iters)]
    event_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    compiled = [_simulate_compiled(program, max_time, i + 1)
                for i in range(iters)]
    compiled_s = time.perf_counter() - t0
    for i, (ev, cs) in enumerate(zip(event, compiled)):
        if ev != cs:
            raise AssertionError(f"engine divergence on seed {i + 1}")
    return {"iters": iters,
            "event_per_sec": round(_rate(iters, event_s), 1),
            "compiled_per_sec": round(_rate(iters, compiled_s), 1),
            "speedup": round(event_s / compiled_s, 2)
            if compiled_s else float("inf"),
            "identical_output": True}


def bench_evaluate_model(k: int) -> dict:
    """Serial vs parallel suite evaluation: identical sample lists."""
    problems = all_problems()[:8]
    jobs = max(1, os.cpu_count() or 1)
    # Fresh caches so neither run is served by the other's results.
    from repro.hdl import set_default_cache
    set_default_cache(CompileCache())
    serial = evaluate_model("gpt-4", problems, k=k, temperature=1.2, seed=7,
                            jobs=1)
    set_default_cache(CompileCache())
    parallel = evaluate_model("gpt-4", problems, k=k, temperature=1.2,
                              seed=7, jobs=jobs)
    set_default_cache(CompileCache())
    identical = (
        [p.problem_id for p in serial.problems]
        == [p.problem_id for p in parallel.problems]
        and all(sp.samples == pp.samples
                for sp, pp in zip(serial.problems, parallel.problems)))
    return {"k": k, "jobs": jobs, "identical_stats": identical}


def main() -> dict:
    iters = 200 if full_eval() else 40
    # Trace the whole benchmark into memory (regardless of REPRO_TRACE) so
    # future perf PRs can regress against real span timings, not just the
    # aggregate numbers; the snapshot lands in BENCH_telemetry.json.
    sink = obs.InMemorySink()
    previous_tracer = obs.get_tracer()
    obs.install_tracer(obs.Tracer(sink, enabled=True))
    obs.reset_metrics()
    try:
        data = {
            "cpus": os.cpu_count(),
            "compile": bench_compile(iters),
            "run_testbench": bench_run_testbench(iters),
            "sim_engines": bench_sim_engines(16 if full_eval() else 6),
            "evaluate_model": bench_evaluate_model(4 if full_eval() else 2),
        }
        metrics_record = obs.flush_metrics()
    finally:
        obs.install_tracer(previous_tracer)
    with open(_OUT_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    telemetry = {
        "spans": obs_report.aggregate_spans(sink.records),
        "metrics": metrics_record,
    }
    with open(_TELEMETRY_PATH, "w", encoding="utf-8") as fh:
        json.dump(telemetry, fh, indent=2, sort_keys=True)
        fh.write("\n")
    rows = [
        ["compile", data["compile"]["cold_per_sec"],
         data["compile"]["cached_per_sec"], data["compile"]["speedup"]],
        ["run_testbench", data["run_testbench"]["cold_per_sec"],
         data["run_testbench"]["cached_per_sec"],
         data["run_testbench"]["speedup"]],
    ]
    print_table("E-perf: compile cache throughput (per sec)",
                ["path", "cold", "cached", "speedup"], rows)
    se = data["sim_engines"]
    print_table("E-perf: sim engine throughput (runs per sec)",
                ["event", "compiled", "speedup", "identical"],
                [[se["event_per_sec"], se["compiled_per_sec"],
                  se["speedup"], se["identical_output"]]])
    return data


def test_perf_trajectory(benchmark=None):
    data = main()
    # Cache-hit path must be at least 2x the cold path (it is ~100x: the
    # result memo makes repeated identical runs nearly free).
    assert data["run_testbench"]["speedup"] >= 2.0
    assert data["compile"]["speedup"] >= 2.0
    # The compiled engine must deliver a real order-of-magnitude win on
    # sim-heavy designs while staying byte-identical to the event engine.
    assert data["sim_engines"]["speedup"] >= 10.0
    assert data["sim_engines"]["identical_output"]
    assert data["evaluate_model"]["identical_stats"]


if __name__ == "__main__":
    main()
