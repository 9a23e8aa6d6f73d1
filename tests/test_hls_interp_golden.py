"""Interpreter identity: every mini-C run in ``tests/golden/hls_interp.json``
replays to the recorded result, or to the recorded error.

Each case stores a program as source, one :class:`Machine` configuration
(mode, width overrides, pipeline hazard, trace, step limit) and a list of
calls made in order on that one machine, as the HLS tester and cosim reuse
their machines.  Per call it records the return value, the printed output,
the step count, a digest of the ``(kind, line, name, value)`` trace tuples,
``heap_blocks_leaked`` and the array arguments after the call; or, for a
call that raises, the :class:`CRuntimeError` kind, line and message.

The programs are every repair and tester workload kernel (four modes each),
the kernels the repair engine produces from them, the cross-check C models,
a sample of SLT snippets, and hand-written corner cases.  Programs with C
globals are left out on purpose.  Re-record (only from a reviewed baseline)
with::

    PYTHONPATH=src python tests/test_hls_interp_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import sys

import pytest

from repro.hls import CRuntimeError, Machine, cparse

GOLDEN = pathlib.Path(__file__).parent / "golden" / "hls_interp.json"


def _cases() -> list[dict]:
    # Missing only while recording; the coverage test below then fails.
    if not GOLDEN.exists():
        return []
    return json.loads(GOLDEN.read_text())["cases"]


def _trace_digest(trace) -> str:
    rows = [[e.kind, e.line, e.name, e.value] for e in trace]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:24]


def _run(case: dict) -> list[dict]:
    """Make every call of ``case`` on one machine; one outcome per call."""
    machine = Machine(cparse(case["source"]), **case["machine"])
    outcomes: list[dict] = []
    for args in case["calls"]:
        args = [list(a) if isinstance(a, list) else a for a in args]
        try:
            result = machine.call(case["function"], *args)
        except CRuntimeError as exc:
            outcomes.append({"error": {"kind": exc.kind, "line": exc.line,
                                       "message": str(exc)}})
            continue
        outcomes.append({
            "value": result.value, "output": result.output,
            "steps": result.steps, "trace": _trace_digest(result.trace),
            "trace_len": len(result.trace),
            "heap": result.heap_blocks_leaked,
            "args_after": [a for a in args if isinstance(a, list)]})
    return outcomes


@pytest.mark.parametrize("case", _cases(), ids=lambda c: c["name"])
def test_interpreter_replays_golden(case):
    assert _run(case) == case["outcomes"]


def test_golden_covers_the_corner_cases():
    cases = _cases()
    names = {case["name"] for case in cases}
    for kind in ("divzero", "bounds", "useafterfree", "doublefree", "stack",
                 "arity", "name", "assert", "timeout"):
        assert any(o.get("error", {}).get("kind") == kind
                   for case in cases for o in case["outcomes"]), kind
    for mode in ("cpu", "cpu_trace", "fpga", "fpga_hazard"):
        assert sum(name.startswith("tester_") and name.endswith(mode)
                   for name in names) == 6, mode
        assert sum(name.startswith("repair_") and name.endswith(mode)
                   for name in names) == 8, mode
    assert sum(name.startswith("slt_") for name in names) >= 4
    assert not any(cparse(case["source"]).globals for case in cases)


# -- recording -----------------------------------------------------------------

_MODES = {
    "cpu": lambda w: {},
    "cpu_trace": lambda w: {"trace": True},
    "fpga": lambda w: {"mode": "fpga", "width_overrides": w},
    "fpga_hazard": lambda w: {"mode": "fpga", "width_overrides": w,
                              "pipeline_hazard": True, "trace": True},
}

# Hand-written corner cases: (source, function, calls, machine options).
_CORNERS = {
    "divzero": ("int f(int a, int b) { int q = a / b; return q + a % 3; }",
                "f", [[7, 2], [-7, 2], [7, -2], [5, 0]], {}),
    "modzero": ("int f(int a, int b) { return a % b; }", "f",
                [[-7, 3], [7, 0]], {}),
    "bounds": ("int f(int i) { int a[4]; a[0] = 1; return a[i]; }", "f",
               [[3], [4], [-1]], {}),
    "bounds_write": ("void f(int a[4], int i) { a[i] = 7; }", "f",
                     [[[1, 2, 3, 4], 2], [[1, 2, 3, 4], 4]], {}),
    "useafterfree": ("int f() { int *p = malloc(16); p[1] = 3; free(p); "
                     "return p[1]; }", "f", [[]], {"trace": True}),
    "useafterfree_deref": ("int f() { int *p = malloc(8); free(p); "
                           "return *p; }", "f", [[]], {}),
    "doublefree": ("int f() { int *p = calloc(4); free(p); free(p); "
                   "return 0; }", "f", [[]], {}),
    "stack": ("int f(int n) { return f(n + 1) + 1; }", "f", [[0]], {}),
    "arity": ("int g(int a, int b) { return a + b; }\n"
              "int f(int x) { return g(x); }", "f", [[3]], {}),
    "name": ("int f(int a) { int b = a; return b + c; }", "f", [[1]], {}),
    "assert": ("int f(int a) { assert(a > 2); return a; }", "f",
               [[5], [1]], {}),
    "timeout": ("int f() { int i = 0; while (1) { i++; } return i; }", "f",
                [[]], {"max_steps": 500}),
    "timeout_expr": ("int f(int n) { int s = 0; for (int i = 0; i < n; i++) "
                     "{ s = s + i * i + (s ^ i); } return s; }", "f",
                     [[3], [50], [4]], {"max_steps": 301}),
    "timeout_trace": ("int f(int n) { int s = 0; "
                      "for (int i = 0; i < n; i++) { s += i; } return s; }",
                      "f", [[10], [100]], {"max_steps": 200, "trace": True}),
    "undefined_function": ("int f(int a) { return h(a); }", "f", [[1]], {}),
    "void_value": ("void g() { }\nint f() { return g() + 1; }", "f", [[]],
                   {}),
    "deref_scalar": ("int f(int a) { return a[0]; }", "f", [[1]], {}),
    "addr_scalar": ("int f(int a) { return &a; }", "f", [[1]], {}),
    "array_no_size": ("int f() { int a[]; return 0; }", "f", [[]], {}),
    "pointer_write_bounds": ("int f() { int *p = malloc(4); *p = 9; "
                             "int *q = p + 1; *q = 3; return *p; }", "f",
                             [[]], {}),
    "pointer_read_bounds": ("int f() { int *p = malloc(4); int *q = p + 1; "
                            "return *q; }", "f", [[]], {}),
    "write_null": ("int f() { int *p = NULL; *p = 1; return 0; }", "f",
                   [[]], {}),
    "bad_incdec": ("int f(int a[2]) { a[0]++; return a[0]; }", "f",
                   [[[1, 2]]], {}),
    "compound_index": ("int f(int a[8]) { int i = 0; a[i++] += 5; "
                       "a[i++] *= 3; a[i] <<= 2; a[i] -= a[i - 1]; "
                       "return i; }", "f", [[[1, 2, 3, 4, 5, 6, 7, 8]]],
                       {"trace": True}),
    "compound_ops": ("int f(int a, int b) { int x = a; x += b; x -= 3; "
                     "x *= b; x /= 2; x %= 1000; x &= 4095; x |= 16; "
                     "x ^= a; x <<= 3; x >>= 1; return x; }", "f",
                     [[5, 9], [-40, 7], [2147483647, 2]], {"trace": True}),
    "unary_ops": ("int f(int a) { int b = -a; int c = ~a; int d = !a; "
                  "int e = !d; int p = a++; int q = ++a; int r = a--; "
                  "int s = --a; return b + c * 3 + d * 5 + e * 7 + p + q "
                  "+ r + s; }", "f", [[0], [5], [-2147483648]],
                  {"trace": True}),
    "casts": ("int f(int a) { char c = a; unsigned u = a; bool b = a; "
              "int x = (char)(a + 100); int y = (unsigned)a; "
              "int z = (int)a; c = c + 200; u = u - 1; b = b + 1; "
              "return c + u + b + x + y + z + sizeof(char) + "
              "sizeof(int); }", "f", [[0], [100], [-300], [70000]],
              {"trace": True}),
    "shifts_and_bits": ("int f(int a, int b) { return (a << b) + (a >> b) "
                        "+ (a & b) + (a | b) + (a ^ b) + (a << 33) + "
                        "(-a >> 2); }", "f",
                        [[1, 31], [-5, 2], [123456789, 7]], {}),
    "comparisons": ("int f(int a, int b) { return (a == b) + (a != b) * 2 "
                    "+ (a < b) * 4 + (a <= b) * 8 + (a > b) * 16 + "
                    "(a >= b) * 32; }", "f", [[1, 2], [2, 2], [3, 2]], {}),
    "logic_short_circuit": ("int f(int a) { int n = 0; "
                            "if (a > 0 && 10 / a > 2) { n += 1; } "
                            "if (a == 0 || 10 / a > 2) { n += 2; } "
                            "return (a && n) + (a || n) + n; }", "f",
                            [[0], [2], [5]], {"trace": True}),
    "ternary": ("int f(int a) { int b = a > 3 ? a * 2 : a - 1; "
                "return b > 5 ? (b > 9 ? 9 : b) : 0; }", "f",
                [[1], [4], [9]], {"trace": True}),
    "builtins": ("int f(int a, int b) { return abs(a) + min(a, b) * 3 + "
                 "max(a, b) * 5; }", "f", [[-7, 2], [4, -9]], {}),
    "exit_returns": ("int g(int a) { if (a > 2) { exit(a * 2); } "
                     "return 1; }\nint f(int a) { int r = g(a); "
                     "return r + 100; }", "f", [[1], [5]], {"trace": True}),
    "exit_no_args": ("int f() { exit(); return 3; }", "f", [[]], {}),
    "printf_formats": ('int f(int a) { printf("a=%d x=%x c=%c %s %% %5d %ld '
                       '%q\\n", a, a, 65 + a, "str", a, a, a); '
                       'printf("two\\nlines %d\\n", a); printf("plain"); '
                       'printf("%d %d\\n", a); printf(a); '
                       'int *p = malloc(8); printf("%d\\n", p + 1); '
                       'free(p); return 0; }', "f", [[3], [-1]], {}),
    "printf_empty": ("int f() { printf(); return 1; }", "f", [[]], {}),
    "heap_leak": ("int f(int n) { int *p = malloc(n * 4); int *q = "
                  "calloc(n); p[0] = n; q[0] = p[0]; free(p); "
                  "return q[0]; }", "f", [[2], [3], [1]], {}),
    "malloc_small": ("int f() { int *p = malloc(2); p[1] = 5; return p[1]; }",
                     "f", [[]], {}),
    "pointer_arith": ("int f(int a[6]) { int *p = a + 2; int *q = 1 + p; "
                      "*q = 40; p[1] += 2; int *n = NULL; "
                      "return p[0] + q[0] + a[3] + (p ? 1 : 0) + "
                      "(n ? 1 : 0); }", "f", [[[1, 2, 3, 4, 5, 6]]], {}),
    "null_free": ("int f() { int *p = NULL; int x = 5; free(x); "
                  "free(p); return 1; }", "f", [[]], {}),
    "do_while": ("int f(int n) { int i = 0; int s = 0; do { s += i; i++; "
                 "if (s > 50) { break; } if (i == 2) { continue; } } "
                 "while (i < n); return s * 100 + i; }", "f",
                 [[0], [5], [40]], {"trace": True}),
    "while_break_continue": ("int f(int n) { int i = 0; int s = 0; "
                             "while (i < n) { i++; if (i % 3 == 0) "
                             "{ continue; } if (i > 20) { break; } "
                             "s += i; } return s; }", "f", [[10], [30]],
                             {"trace": True}),
    "for_variants": ("int f(int n) { int s = 0; int i = 0; "
                     "for (; i < n; ) { i++; s += i; } "
                     "for (i = 0; i < 3; i++) { s += 1; } "
                     "for (int j = 0; ; j++) { if (j > 4) { break; } "
                     "s += j; } return s; }", "f", [[4]], {"trace": True}),
    "nested_loops": ("int f(int n) { int s = 0; for (int i = 0; i < n; i++) "
                     "{ for (int j = 0; j < i; j++) { if (j == 3) { break; } "
                     "s += i * j; } } return s; }", "f", [[7]],
                     {"trace": True}),
    "recursion": ("int fib(int n) { if (n < 2) { return n; } "
                  "return fib(n - 1) + fib(n - 2); }", "fib", [[10], [1]],
                  {"trace": True}),
    "hazard_nested": ("int f(int d[8]) { int acc = 1; int prev = 0; "
                      "for (int i = 0; i < 8; i++) {\n"
                      "#pragma HLS pipeline II=1\n"
                      "int t = acc + prev; "
                      "for (int j = 0; j < 2; j++) {\n"
                      "#pragma HLS pipeline\n"
                      "acc = acc * 2 + j; } "
                      "prev = d[i]; acc = t + d[i]; "
                      "if (acc > 100000) { break; } } "
                      "return acc + prev; }", "f",
                      [[[1, 2, 3, 4, 5, 6, 7, 8]], [[9, 9, 9, 9, 9, 9, 9, 9]]],
                      {"mode": "fpga", "pipeline_hazard": True,
                       "trace": True, "width_overrides": {"acc": 20},
                       "max_steps": 3000}),
    "hazard_inner": ("int f(int d[4]) { int acc = 0; "
                     "for (int i = 0; i < 4; i++) { int s = 1; "
                     "for (int j = 0; j < 3; j++) {\n"
                     "#pragma HLS pipeline II=1\n"
                     "s = s * 2 + d[i]; acc += s; } } return acc; }", "f",
                     [[[1, 2, 3, 4]]], {"mode": "fpga",
                                        "pipeline_hazard": True,
                                        "trace": True}),
    "hazard_while": ("int f(int n) { int acc = 3; int k = 0; "
                     "while (k < n) {\n#pragma HLS pipeline\n"
                     "acc = acc * 3 + k; k++; } return acc; }", "f",
                     [[5]], {"mode": "fpga", "pipeline_hazard": True}),
    "hazard_ptr": ("int f(int d[4]) { int *p = d; int s = 0; "
                   "for (int i = 0; i < 4; i++) {\n#pragma HLS pipeline\n"
                   "s += p[i]; p = p + 0; s++; } return s; }", "f",
                   [[[4, 3, 2, 1]]], {"mode": "fpga",
                                      "pipeline_hazard": True,
                                      "trace": True}),
    "hazard_continue": ("int f(int d[6]) { int acc = 0; "
                        "for (int i = 0; i < 6; i++) {\n"
                        "#pragma HLS pipeline II=1\n"
                        "if (d[i] == 0) { continue; } acc = acc + d[i]; } "
                        "return acc; }", "f", [[[1, 0, 2, 0, 3, 4]]],
                        {"mode": "fpga", "pipeline_hazard": True}),
    "width_override_params": ("int f(int a, int b) { a = a + b; int c = a; "
                              "c += 1; b++; return a + b + c; }", "f",
                              [[200, 100], [-5, 3]],
                              {"mode": "fpga", "trace": True,
                               "width_overrides": {"a": 8, "b": 4, "c": 6}}),
}


def _kernel_inputs(func, rng: random.Random, count: int) -> list[list]:
    """Seeded inputs: small values, 16-bit values and width boundaries."""
    pool = [0, 1, 255, 256, 4095, 4096, 32767, 32768, 65535, 65536]

    def scalar() -> int:
        roll = rng.random()
        if roll < 0.5:
            return rng.randrange(256)
        if roll < 0.8:
            return rng.randrange(1 << 16)
        return rng.choice(pool)

    calls = []
    for _ in range(count):
        args: list = []
        for param in func.params:
            if param.ctype.is_array or param.ctype.is_pointer:
                size = param.ctype.array_size
                size = size if size and size > 0 else rng.choice((8, 16))
                args.append([scalar() for _ in range(size)])
            else:
                args.append(scalar())
        calls.append(args)
    return calls


def _record_case(name: str, source: str, function: str, calls: list,
                 machine: dict) -> dict:
    case = {"name": name, "source": source, "function": function,
            "machine": machine, "calls": calls}
    case["outcomes"] = _run(case)
    return case


def record() -> None:
    from repro.bench import REPAIR_WORKLOADS, TESTER_WORKLOADS
    from repro.flows.crosscheck import _C_MODELS
    from repro.hls import HlsRepairEngine
    from repro.llm import SimulatedLLM
    from repro.slt import random_genome

    cases: list[dict] = []
    for w in TESTER_WORKLOADS:
        func = cparse(w.source).function(w.top)
        calls = _kernel_inputs(func, random.Random(f"tester:{w.workload_id}"),
                               6)
        for mode, options in _MODES.items():
            cases.append(_record_case(f"tester_{w.workload_id}_{mode}",
                                      w.source, w.top, calls,
                                      options(dict(w.width_overrides))))
    repaired: list[tuple[str, str, str]] = []
    for w in REPAIR_WORKLOADS:
        func = cparse(w.source).function(w.top)
        calls = _kernel_inputs(func, random.Random(f"repair:{w.workload_id}"),
                               5)
        for mode, options in _MODES.items():
            cases.append(_record_case(f"repair_{w.workload_id}_{mode}",
                                      w.source, w.top, calls,
                                      options({"acc": 12, "v": 10})))
        result = HlsRepairEngine(SimulatedLLM("gpt-4", seed=1), use_rag=True,
                                 seed=1).repair(w.source, w.top)
        if result.repaired_source.strip() != w.source.strip():
            repaired.append((w.workload_id, result.repaired_source, w.top))
    for workload_id, source, top in repaired:
        func = cparse(source).function(top)
        calls = _kernel_inputs(func, random.Random(f"repaired:{workload_id}"),
                               4)
        cases.append(_record_case(f"repaired_{workload_id}", source, top,
                                  calls, {"trace": True}))
    for problem_id, source in sorted(_C_MODELS.items()):
        func = cparse(source).function("model")
        rng = random.Random(f"xchk:{problem_id}")
        calls = [[rng.randrange(256) for _ in func.params] for _ in range(6)]
        cases.append(_record_case(f"crosscheck_{problem_id}", source,
                                  "model", calls, {}))
    kept = 0
    for seed in range(40):
        source = random_genome(random.Random(seed), realistic=seed % 4 != 3) \
            .render()
        case = _record_case(f"slt_{seed}", source, "main", [[]], {})
        if case["outcomes"][0].get("steps", 0) > 60_000:
            continue
        cases.append(case)
        kept += 1
        if kept == 6:
            break
    for name, (source, function, calls, machine) in _CORNERS.items():
        cases.append(_record_case(f"corner_{name}", source, function, calls,
                                  machine))
    GOLDEN.write_text(json.dumps({"cases": cases}, indent=1) + "\n")
    print(f"recorded {len(cases)} cases to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
