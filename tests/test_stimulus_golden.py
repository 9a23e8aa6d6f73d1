"""Stimulus identity: every direct port-level run keeps its outputs.

The fixture ``tests/golden/stimulus.json`` records three kinds of run of
the stimulus driver (:class:`repro.hdl.StimulusRunner`):

* ``calls`` — :func:`repro.hdl.exercise_module` signatures for the calls
  the simulation-feedback flows actually make.  They are captured while
  ``vrank``, ``assertgen``, ``autobench`` and ``crosscheck`` run over every
  problem and the security ``detection_sweep`` runs over two seeds, then
  deduplicated and thinned to a fixed sample.  Hand-built cases add X
  outputs, broken candidates (``None``), reset and clocked designs, a
  design outside the compiled subset, a loop that never settles,
  a ``$finish`` inside combinational logic and an X write index that
  fails after several good vectors;
* ``cec`` — every :class:`~repro.synth.CecResult` field of
  ``check_against_simulation`` for each combinational problem's reference
  netlist against the simulation of its reference and of each inserted
  trojan;
* ``cosim`` — every :class:`~repro.hls.CosimReport` field of the
  ``c_rtl_cosim`` calls the HLS repair engine makes (both RAG settings,
  every repair workload), plus each tester kernel with and without its
  width overrides.

Sources are stored once, by sha256, in ``sources``.  Re-record (only from
a reviewed baseline) with::

    PYTHONPATH=src python tests/test_stimulus_golden.py --record
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import sys

import pytest

from repro.hdl import exercise_module, parse_module

GOLDEN = pathlib.Path(__file__).parent / "golden" / "stimulus.json"

#: Captured flow calls kept in the fixture (every n-th distinct call).
SAMPLE = 400
FLOWS = ("vrank", "assertgen", "autobench", "crosscheck")
TROJAN_SEEDS = (0, 1)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- hand-built designs -------------------------------------------------------------

X_STATE = """
module xs(input clk, input [3:0] a, output reg [3:0] q, output [3:0] y);
  always @(posedge clk) q <= q + a;
  assign y = a ^ 4'b0101;
endmodule
"""

COUNTER_SYNC_RESET = """
module cnt(input clk, input rst, input en, output reg [3:0] q,
           output wrap);
  always @(posedge clk) begin
    if (rst) q <= 4'd0;
    else if (en) q <= q + 4'd1;
  end
  assign wrap = q == 4'd15;
endmodule
"""

COUNTER_ASYNC_RESET = """
module acnt(input clk, input rst, input [1:0] step, output reg [5:0] q);
  always @(posedge clk or posedge rst) begin
    if (rst) q <= 6'd0;
    else q <= q + step;
  end
endmodule
"""

# User functions are outside the compiled subset.
WITH_FUNCTION = """
module fn(input [3:0] a, input [3:0] b, output [4:0] y);
  function [4:0] add;
    input [3:0] x;
    input [3:0] z;
    add = x + z;
  endfunction
  assign y = add(a, b);
endmodule
"""

# A combinational loop through an inverter: once en=1 it toggles every
# delta cycle and runs past the settle iteration limit.
RUNAWAY = """
module ri(input en, output reg b, output a);
  assign a = en ? ~b : 1'b0;
  always @* b <= a;
endmodule
"""

COMB_FINISH = """
module cf(input [1:0] a, output reg [1:0] y);
  always @* begin
    y = a + 2'd1;
    if (a == 2'd3) $finish;
  end
endmodule
"""

# Writes through an index that is X whenever sel=1 at a clock edge.
X_INDEX = """
module xi(input clk, input sel, input d, output reg [3:0] m);
  reg [1:0] p;
  always @(posedge clk) m[sel ? p : 2'd0] <= d;
endmodule
"""

BROKEN = "module br(input a, output y); assign y = a &; endmodule"


def hand_calls() -> dict[str, dict]:
    """Hand-built ``exercise_module`` calls, by name."""
    def call(source, top, vectors, clk=None, reset=None):
        return {"source": source, "top": top, "vectors": vectors,
                "clk": clk, "reset": reset}
    return {
        "x_outputs": call(X_STATE, "xs",
                          [{"a": 1}, {"a": 2}, {"a": 15}], clk="clk"),
        "x_outputs_comb_only": call(X_STATE, "xs", [{"a": 3}, {"a": 9}]),
        "sync_reset": call(COUNTER_SYNC_RESET, "cnt",
                           [{"en": 1}] * 17 + [{"en": 0}, {"en": 1}],
                           clk="clk", reset="rst"),
        "no_reset_applied": call(COUNTER_SYNC_RESET, "cnt",
                                 [{"en": 1}, {"en": 0, "rst": 1},
                                  {"en": 1, "rst": 0}], clk="clk"),
        "async_reset": call(COUNTER_ASYNC_RESET, "acnt",
                            [{"step": s} for s in (1, 2, 3, 0, 3, 3)],
                            clk="clk", reset="rst"),
        "reset_without_clock": call(COUNTER_ASYNC_RESET, "acnt",
                                    [{"step": 1}, {"step": 2}],
                                    reset="rst"),
        "ineligible": call(WITH_FUNCTION, "fn",
                           [{"a": a, "b": b} for a, b in
                            ((0, 0), (15, 15), (7, 9), (3, 12))]),
        "runaway": call(RUNAWAY, "ri", [{"en": 0}, {"en": 0}, {"en": 1}]),
        "comb_finish": call(COMB_FINISH, "cf",
                            [{"a": a} for a in (0, 3, 1, 3, 2)]),
        "x_index_after_vectors": call(X_INDEX, "xi",
                                      [{"sel": 0, "d": 1}, {"sel": 0, "d": 0},
                                       {"sel": 1, "d": 1}], clk="clk"),
        "broken_source": call(BROKEN, "br", [{"a": 1}]),
        "unknown_top": call(X_STATE, "nope", [{"a": 1}]),
        "extra_vector_keys": call(COUNTER_SYNC_RESET, "cnt",
                                  [{"en": 1, "bogus": 3}, {"q": 5}],
                                  clk="clk", reset="rst"),
    }


# -- capture of the calls the flows make ------------------------------------------------

def captured_calls() -> list[dict]:
    """Distinct ``exercise_module`` calls of the flows, in first-call order."""
    import repro.flows.assertgen as assertgen
    import repro.flows.autobench as autobench
    import repro.flows.crosscheck as crosscheck
    import repro.flows.security as security
    import repro.hdl.testbench as testbench
    from repro.bench.problems import all_problems
    from repro.flows import detection_sweep, run_flow

    original = testbench.exercise_module
    seen: dict[str, dict] = {}

    def spy(source, top, vectors, clk=None, reset=None, cache=None):
        call = {"source": source, "top": top, "vectors": vectors,
                "clk": clk, "reset": reset}
        key = _sha(json.dumps([_sha(source), top, vectors, clk, reset]))
        seen.setdefault(key, call)
        return original(source, top, vectors, clk=clk, reset=reset,
                        cache=cache)

    modules = (testbench, assertgen, autobench, crosscheck, security)
    for module in modules:
        module.exercise_module = spy
    try:
        problems = all_problems()
        for flow in FLOWS:
            for p in problems:
                try:
                    run_flow(flow, [p], "gpt-4", seed=0, jobs=1)
                except Exception:       # crosscheck's unparsable C models
                    continue
        detection_sweep(problems, seeds=TROJAN_SEEDS, jobs=1)
    finally:
        for module in modules:
            module.exercise_module = original
    calls = list(seen.values())
    step = max(1, len(calls) // SAMPLE)
    return calls[::step][:SAMPLE]


def _signature(call: dict) -> list | None:
    return exercise_module(call["source"], call["top"], call["vectors"],
                           clk=call["clk"], reset=call["reset"])


# -- CEC against simulation ---------------------------------------------------------

def cec_cases() -> dict[str, tuple[str, str, str]]:
    """``name -> (reference, simulated source, module)`` for every
    combinational problem: its reference, then each trojan."""
    from repro.bench.problems import all_problems
    from repro.flows.security import insert_trojan
    from repro.synth import SynthesisError, synthesize_module
    out = {}
    for p in all_problems():
        try:
            synth = synthesize_module(parse_module(p.reference,
                                                   p.module_name))
        except SynthesisError:
            continue
        if synth.is_sequential:
            continue
        out[f"{p.problem_id}/reference"] = (p.reference, p.reference,
                                            p.module_name)
        for seed in TROJAN_SEEDS:
            design = insert_trojan(p, seed=seed)
            if design is not None:
                out[f"{p.problem_id}/trojan{seed}"] = (
                    p.reference, design.source, p.module_name)
    return out


def _cec_record(reference: str, source: str, module_name: str) -> dict:
    from repro.synth import check_against_simulation, synthesize_module
    module = parse_module(reference, module_name)
    return dataclasses.asdict(check_against_simulation(
        synthesize_module(module), source, module, vectors=64))


# -- C/RTL co-simulation --------------------------------------------------------------

def captured_cosims() -> list[dict]:
    """``c_rtl_cosim`` calls: the repair engine's, then the tester kernels."""
    import repro.hls.repair as repair
    from repro.bench.workloads import REPAIR_WORKLOADS, TESTER_WORKLOADS
    from repro.hls import HlsRepairEngine
    from repro.hls.cprinter import program_str
    from repro.llm import SimulatedLLM

    original = repair.c_rtl_cosim
    calls: list[dict] = []

    def spy(program, function, vectors=32, seed=21, width_overrides=None):
        report = original(program, function, vectors=vectors, seed=seed,
                          width_overrides=width_overrides)
        calls.append({"c_source": program_str(program), "function": function,
                      "vectors": vectors, "seed": seed,
                      "width_overrides": width_overrides,
                      "live": dataclasses.asdict(report)})
        return report

    repair.c_rtl_cosim = spy
    try:
        for w in REPAIR_WORKLOADS:
            for rag in (True, False):
                HlsRepairEngine(SimulatedLLM("gpt-4", seed=0), use_rag=rag,
                                seed=0).repair(w.source, w.top)
    finally:
        repair.c_rtl_cosim = original
    for w in TESTER_WORKLOADS:
        for overrides in (None, w.width_overrides or None):
            calls.append({"c_source": w.source, "function": w.top,
                          "vectors": 32, "seed": 21,
                          "width_overrides": overrides})
    return calls


def _cosim_record(call: dict) -> dict:
    from repro.hls import c_rtl_cosim, cparse
    return dataclasses.asdict(c_rtl_cosim(
        cparse(call["c_source"]), call["function"], vectors=call["vectors"],
        seed=call["seed"], width_overrides=call["width_overrides"]))


# -- replay ---------------------------------------------------------------------------

def _fixture() -> dict:
    # Missing only while recording; the coverage test below then fails.
    if not GOLDEN.exists():
        return {"sources": {}, "calls": {}, "cec": {}, "cosim": {}}
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _stored_call(name: str) -> dict:
    fixture = _fixture()
    call = dict(fixture["calls"][name]["call"])
    call["source"] = fixture["sources"][call.pop("source_sha")]
    return call


@pytest.mark.parametrize("name", sorted(_fixture()["calls"]))
def test_call_replays(name):
    expected = _fixture()["calls"][name]["signature"]
    assert _signature(_stored_call(name)) == expected


@pytest.mark.parametrize("name", sorted(_fixture()["cec"]))
def test_cec_replays(name):
    assert _cec_record(*cec_cases()[name]) == _fixture()["cec"][name]


@pytest.mark.parametrize("name", sorted(_fixture()["cosim"]))
def test_cosim_replays(name):
    record = _fixture()["cosim"][name]
    call = dict(record["call"])
    call["c_source"] = _fixture()["sources"][call.pop("source_sha")]
    assert _cosim_record(call) == record["report"]


def test_golden_covers_every_case_kind():
    fixture = _fixture()
    calls = fixture["calls"]
    assert set(hand_calls()) <= {n.split("/", 1)[1] for n in calls
                                 if n.startswith("hand/")}
    assert sum(n.startswith("flow/") for n in calls) >= 100
    for name in ("runaway", "x_index_after_vectors", "broken_source"):
        assert calls[f"hand/{name}"]["signature"] is None
    assert calls["hand/ineligible"]["signature"] is not None
    signatures = [c["signature"] for c in calls.values()]
    assert any(s is None for s in signatures)
    assert any(s and any("x" in v for row in s for v in row.values())
               for s in signatures)
    assert any(c["call"]["clk"] and c["call"]["reset"]
               for n, c in calls.items() if n.startswith("flow/"))
    assert set(fixture["cec"]) == set(cec_cases())
    assert any(not r["equivalent"] for r in fixture["cec"].values())
    reports = list(fixture["cosim"].values())
    assert any(r["report"]["mismatches"] for r in reports)
    assert any(r["report"]["vectors_run"] and not r["report"]["mismatches"]
               for r in reports)


# -- recording ------------------------------------------------------------------------

def record() -> None:
    sources: dict[str, str] = {}

    def stored(call: dict, field: str) -> dict:
        out = {k: v for k, v in call.items() if k not in (field, "live")}
        out["source_sha"] = _sha(call[field])
        sources[out["source_sha"]] = call[field]
        return out

    calls = {}
    for name, call in hand_calls().items():
        calls[f"hand/{name}"] = {"call": stored(call, "source"),
                                 "signature": _signature(call)}
    for i, call in enumerate(captured_calls()):
        calls[f"flow/{i:04d}"] = {"call": stored(call, "source"),
                                  "signature": _signature(call)}
    cosim = {}
    for i, call in enumerate(captured_cosims()):
        report = _cosim_record(call)
        # The C text must reparse to the program the engine checked.
        assert "live" not in call or report == call["live"], call["function"]
        cosim[f"{i:03d}/{call['function']}"] = {
            "call": stored(call, "c_source"), "report": report}
    fixture = {
        "sources": sources,
        "calls": calls,
        "cec": {name: _cec_record(*case)
                for name, case in cec_cases().items()},
        "cosim": cosim,
    }
    GOLDEN.write_text(json.dumps(fixture, indent=0, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"recorded {len(calls)} calls ({len(sources)} sources), "
          f"{len(fixture['cec'])} CEC checks and {len(cosim)} cosim "
          f"reports to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
