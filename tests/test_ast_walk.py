"""AST-walk identity: every structural fact the toolchain reads off a
Verilog or mini-C AST replays to ``tests/golden/ast_walk.json``.

The facts are the outputs of the collectors built on the shared walkers
(:func:`repro.hdl.ast.walk_stmts` and friends, and their mini-C twins in
:mod:`repro.hls.cast`).  Per Verilog source the fixture holds a digest of
the critic verdict and, per module:

* the reads, writes and ``has_timing`` of every always, initial and
  function body, and the module's read and write sets;
* ``lint_module`` warnings, in order;
* the critic's expression stream (``_module_exprs``), in order, and the
  unparsed module;
* the elaborated processes (kind, name, dependencies, timing) and the
  ``compile_program`` source, or the error either raised.

Per mini-C program it holds ``_declared_types`` and ``backward_slice`` of
every function, the compat report and the RISC-V assembly (or the
compile error).  Per SLT snippet it holds the RISC-V assembly.

The sources are regenerated here, not stored, and each entry keeps a
digest of its source, so a mismatch there means a generator changed, not
a walker.  They are every problem's reference and testbench, the first
three AutoChip samples of each evaluation model at seeds 0-5, 300
differential-fuzz cases (design and testbench), the HLS tester and repair
workloads, the repair engine's output on each, the cross-check C models
and SLT snippets.  Re-record (only from a reviewed baseline) with::

    PYTHONPATH=src python tests/test_ast_walk.py --record
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import sys

from repro.critic.rules import _module_exprs, validate_rtl
from repro.hdl import ast as A
from repro.hdl import parse
from repro.hdl.compiled import UnsupportedDesign, compile_program
from repro.hdl.elaborate import (_expr_reads, _stmt_reads, elaborate,
                                 stmt_writes)
from repro.hdl.errors import HdlError
from repro.hdl.lint import lint_module, module_reads_writes
from repro.hdl.unparse import unparse_expr, unparse_module
from repro.hls import backward_slice, check_compatibility, cparse
from repro.hls.interp import _declared_types

GOLDEN = pathlib.Path(__file__).parent / "golden" / "ast_walk.json"

LLM_SEEDS = range(6)
SAMPLES = 3
FUZZ_SEED = 4
FUZZ_CASES = 300
SNIPPETS = 40

# Hand-written corners no generator reaches: part-select targets with
# identifier bounds, loop headers in clocked and combinational blocks,
# case labels that read signals, timing under loops and delays, event
# waits in nested statements.
VERILOG_EDGES = {
    "part_select_targets": """
module m(input [7:0] a, input [2:0] k, output reg [7:0] y, output [7:0] z);
  parameter W = 4;
  reg [7:0] t;
  assign z[W-1:0] = a[W-1:0] == a[W-1:0] ? a[3:0] : 4'd0;
  assign z[7:W] = 4'd0;
  always @* begin
    t = a;
    y[W-1:0] = t[k] ? a[W-1:0] : {W{1'b0}};
    y[7:W] = (k == k) ? a[7:W] : 4'hf;
    y[k] = ~a[k];
  end
endmodule""",
    "loop_headers": """
module m(input clk, input [3:0] d, output reg [3:0] q, output reg [3:0] c);
  integer i, j;
  always @(posedge clk) begin
    for (i = 0; i < 4; i = i + 1) q[i] <= d[i];
    for (j = 0; j < 2; j = j + 1) begin c = c + j; end
  end
  always @* begin
    for (i = 0; i < 4; i = i + 1) c[i] <= d[3 - i];
  end
endmodule""",
    "case_labels_and_loops": """
module m(input [1:0] s, input [3:0] a, input [3:0] b, output reg [3:0] y);
  integer n;
  always @* begin
    case (s)
      2'd0, a[1:0]: y = a;
      b[1:0]: begin n = 0; while (n < 2) n = n + 1; y = b; end
      default: repeat (s) y = a ^ b;
    endcase
  end
endmodule""",
    "timing_and_waits": """
module tb;
  reg clk, rst;
  reg [3:0] cnt;
  always #5 clk = ~clk;
  always @(posedge clk) cnt <= rst ? 4'd0 : cnt + 1;
  initial begin
    clk = 0; rst = 1;
    repeat (2) @(posedge clk);
    if (cnt == 0) begin #3 rst = 0; @(negedge clk); end
    for (cnt = 0; cnt < 3; cnt = cnt + 1) #1 $display("%d", cnt);
    while (rst) @(posedge clk or negedge rst);
    #10 $finish;
  end
endmodule""",
    "functions": """
module m(input [3:0] a, output [3:0] y);
  function [3:0] f(input [3:0] x);
    integer i;
    begin
      f = 0;
      for (i = 0; i < 4; i = i + 1) if (x[i]) f = f + 1;
    end
  endfunction
  assign y = f(a) ^ f({a[1:0], a[3:2]});
endmodule""",
}

C_EDGES = {
    "decls_and_calls": ("""
int g(int x) { return x > 0 ? g(x - 1) + 1 : 0; }
int h(int *p, int n) { int s = 0; for (int i = 0; i < n; i++) s += p[i]; return s; }
int top(int a[8], int n) {
  int s = 0;
  for (int i = g(n); i < h(a, n); i = i + g(1)) {
    int t = a[i];
    if (t > s) { unsigned u = t; s = s + u; } else { int u = -t; s -= u; }
    while (s > 100) { s = s / 2; if (s == 7) return s; }
  }
  char buf[4];
  buf[0] = s;
  return s + buf[0];
}""", "top"),
    "zero_array": ("""
int main() { int ok = 1; int bad[0]; bad[0] = ok; return ok; }""", "main"),
}


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, ensure_ascii=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def _error(exc: Exception) -> list:
    return [type(exc).__name__, str(exc)]


# -- the corpus ---------------------------------------------------------------

def verilog_sources() -> list[tuple[str, str]]:
    from repro.bench.harness import make_task
    from repro.bench.problems import all_problems
    from repro.fuzz.grammar import generate_case
    from repro.llm import AUTOCHIP_EVAL_MODELS, SimulatedLLM
    from repro.llm.prompts import Prompt

    problems = all_problems()
    out = []
    for p in problems:
        out.append((f"problem_{p.problem_id}_reference", p.reference))
        out.append((f"problem_{p.problem_id}_testbench", p.testbench))
    for p in problems:
        task = make_task(p)
        prompt = Prompt(spec=p.spec)
        for model in AUTOCHIP_EVAL_MODELS:
            for seed in LLM_SEEDS:
                llm = SimulatedLLM(model, seed=seed)
                for i in range(SAMPLES):
                    out.append((f"llm_{p.problem_id}_{model}_{seed}_{i}",
                                llm.generate(task, prompt, 0.8,
                                             sample_index=i).text))
    for index in range(FUZZ_CASES):
        case = generate_case(FUZZ_SEED, index)
        out.append((f"fuzz_{index}_dut", case.dut_source))
        out.append((f"fuzz_{index}_tb", case.tb_source))
    out += [(f"edge_{name}", text) for name, text in VERILOG_EDGES.items()]
    return out


def c_sources() -> list[tuple[str, str, str]]:
    from repro.bench import REPAIR_WORKLOADS, TESTER_WORKLOADS
    from repro.flows.crosscheck import _C_MODELS
    from repro.hls import HlsRepairEngine
    from repro.llm import SimulatedLLM

    out = [(f"tester_{w.workload_id}", w.source, w.top)
           for w in TESTER_WORKLOADS]
    for w in REPAIR_WORKLOADS:
        out.append((f"repair_{w.workload_id}", w.source, w.top))
        for rag in (True, False):
            result = HlsRepairEngine(SimulatedLLM("gpt-4", seed=1),
                                     use_rag=rag, seed=1).repair(w.source,
                                                                 w.top)
            out.append((f"repaired_{w.workload_id}_rag{int(rag)}",
                        result.repaired_source, w.top))
    out += [(f"crosscheck_{pid}", source, "model")
            for pid, source in sorted(_C_MODELS.items())]
    out += [(f"edge_{name}", text, top)
            for name, (text, top) in C_EDGES.items()]
    return out


def snippet_sources() -> list[tuple[str, str]]:
    from repro.slt import random_genome
    return [(f"slt_{seed}", random_genome(random.Random(seed),
                                          realistic=seed % 4 != 3).render())
            for seed in range(SNIPPETS)]


# -- the facts ------------------------------------------------------------------

def _body_facts(body: A.Stmt) -> list:
    reads: set[str] = set()
    writes: set[str] = set()
    _stmt_reads(body, reads)
    stmt_writes(body, writes)
    return [sorted(reads), sorted(writes), A.has_timing(body)]


def _design_facts(source: A.SourceFile, top: str) -> dict:
    try:
        design = elaborate(source, top)
    except HdlError as exc:
        return {"elaborate": _error(exc)}
    procs = [[p.kind, p.name, sorted(p.deps),
              None if p.body is None else A.has_timing(p.body)]
             for p in design.processes]
    try:
        program = _digest(compile_program(design).source)
    except UnsupportedDesign as exc:
        program = _error(exc)
    return {"processes": procs, "program": program}


def module_facts(source: A.SourceFile, module: A.Module) -> dict:
    reads, writes = module_reads_writes(module)
    assigns = []
    for ca in module.assigns:
        ca_reads: set[str] = set()
        _expr_reads(ca.expr, ca_reads)
        assigns.append(sorted(ca_reads))
    bodies = ([alw.body for alw in module.always_blocks]
              + [ini.body for ini in module.initial_blocks]
              + [func.body for func in module.functions])
    return {
        "bodies": [_body_facts(body) for body in bodies],
        "assigns": assigns,
        "reads": sorted(reads), "writes": sorted(writes),
        "lint": [[w.code, w.message] for w in lint_module(module)],
        "exprs": [unparse_expr(e) for e in _module_exprs(module)],
        "unparse": unparse_module(module),
        "design": _design_facts(source, module.name),
    }


def verilog_facts(text: str) -> dict:
    verdict = validate_rtl(text)
    facts: dict = {"source": _digest(text), "verdict": [
        verdict.ok, [[f.taxonomy, f.rule, f.detail]
                     for f in verdict.failures]]}
    try:
        source = parse(text)
    except HdlError as exc:
        facts["parse"] = _error(exc)
        return facts
    facts["modules"] = {name: _digest(module_facts(source, module))
                        for name, module in source.modules.items()}
    return facts


def c_facts(text: str, top: str) -> dict:
    from repro.riscv import compile_program as compile_c

    facts: dict = {"source": _digest(text)}
    program = cparse(text)
    functions = {}
    for name, func in program.functions.items():
        sliced = backward_slice(program, name)
        functions[name] = {
            "types": {var: sorted(str(t) for t in types)
                      for var, types in _declared_types(func).items()},
            "slice": [sorted(sliced.criterion), sorted(sliced.key_variables),
                      sorted(sliced.relevant_lines)]}
    facts["functions"] = _digest(functions)
    facts["compat"] = _digest([
        [i.code, i.message, i.line, i.function, i.tool_reported, i.fixable]
        for i in check_compatibility(program).issues])
    try:
        facts["asm"] = _digest(compile_c(program, top))
    except Exception as exc:   # CompileError, or an unsupported construct
        facts["asm"] = _error(exc)
    return facts


def all_facts() -> dict:
    from repro.riscv import compile_program as compile_c

    return {
        "verilog": {name: verilog_facts(text)
                    for name, text in verilog_sources()},
        "c": {name: c_facts(text, top) for name, text, top in c_sources()},
        "slt": {name: _digest(compile_c(text))
                for name, text in snippet_sources()},
    }


# -- the tests ------------------------------------------------------------------

def test_ast_walk_replays_golden():
    golden = json.loads(GOLDEN.read_text())
    now = all_facts()
    for kind in ("verilog", "c", "slt"):
        assert list(now[kind]) == list(golden[kind]), kind
        bad = [name for name in golden[kind]
               if now[kind][name] != golden[kind][name]]
        assert not bad, f"{kind}: {len(bad)} mismatches, first {bad[:5]}"


def test_walk_order():
    """The child-order contract of DESIGN.md section 19, on one block."""
    body = parse("""
module m(input [1:0] s, input [3:0] a, output reg [3:0] y);
  integer i;
  always @* begin
    case (s) 2'd0: y = a; a[1:0], 2'd3: y[s] = ~a; endcase
    for (i = 0; i < 2; i = i + 1) #1 y[3:2] = a[i];
  end
endmodule""").modules["m"].always_blocks[0].body
    names = [type(s).__name__ for s in A.walk_stmts(body)]
    assert names == ["Block", "Case", "Assign", "Assign", "For", "Delay",
                     "Assign"]
    with_headers = [type(s).__name__
                    for s in A.walk_stmts(body, for_headers=True)]
    assert with_headers[4:] == ["For", "Assign", "Assign", "Delay", "Assign"]
    exprs = [unparse_expr(e) for s in A.walk_stmts(body)
             for e in A.stmt_exprs(s, bounds=True)]
    assert exprs == ["s", "2'h0", "a[1:0]", "2'h3", "a", "~(a)", "s",
                     "(i < 2)", "a[i]", "3", "2"]
    assert [unparse_expr(e) for e in A.walk_exprs(A.Binary(
        "+", A.Concat((A.Identifier("x"), A.Number(1, 1))),
        A.Index("v", A.Identifier("k"))))] == [
        "({x, 1} + v[k])", "{x, 1}", "x", "1", "v[k]", "k"]
    assert A.has_timing(body)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps(all_facts(), indent=0, sort_keys=False)
                      + "\n")
    print(f"recorded {GOLDEN}")
