"""Tests for the mini-C lexer, parser, printer and interpreter."""

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.hls import CParseError, CRuntimeError, Machine, cparse, program_str
from repro.hls.clexer import CLexError, ctokenize, CTokKind


class TestLexer:
    def test_tokens_and_keywords(self):
        toks = ctokenize("int x = 42;")
        assert [t.text for t in toks[:-1]] == ["int", "x", "=", "42", ";"]

    def test_hex_literal(self):
        assert ctokenize("0xFF")[0].value == 255

    def test_char_literal(self):
        assert ctokenize("'a'")[0].value == ord("a")

    def test_comments_stripped(self):
        toks = ctokenize("a /* b */ c // d\n e")
        assert [t.text for t in toks[:-1]] == ["a", "c", "e"]

    def test_pragma_preserved(self):
        toks = ctokenize("#pragma HLS pipeline II=1\nint x;")
        assert toks[0].kind is CTokKind.PRAGMA
        assert "pipeline" in toks[0].text

    def test_include_skipped(self):
        toks = ctokenize("#include <stdio.h>\nint x;")
        assert toks[0].text == "int"

    def test_define_substitution(self):
        toks = ctokenize("#define N 16\nint a[N];")
        assert any(t.value == 16 for t in toks if t.kind is CTokKind.NUMBER)

    def test_float_rejected(self):
        with pytest.raises(CLexError):
            ctokenize("1.5")


class TestParser:
    def test_function_with_params(self):
        prog = cparse("int f(int a, int b) { return a + b; }")
        func = prog.function("f")
        assert len(func.params) == 2

    def test_array_param(self):
        prog = cparse("int f(int a[8]) { return a[0]; }")
        assert prog.function("f").params[0].ctype.array_size == 8

    def test_pointer_param(self):
        prog = cparse("int f(int *p) { return p[0]; }")
        assert prog.function("f").params[0].ctype.is_pointer

    def test_struct_rejected(self):
        with pytest.raises(CParseError):
            cparse("struct point { int x; };")

    def test_switch_rejected(self):
        with pytest.raises(CParseError):
            cparse("int f(int a) { switch (a) { } }")

    def test_float_type_rejected(self):
        with pytest.raises(CParseError):
            cparse("float f(int a) { return a; }")

    def test_prototype_skipped(self):
        prog = cparse("int g(int a);\nint g(int a) { return a; }")
        assert "g" in prog.functions

    def test_loop_pragma_attachment(self):
        prog = cparse("""
int f(int n) {
    int s = 0;
    for (int i = 0; i < 8; i++) {
    #pragma HLS unroll factor=2
        s += i * n;
    }
    return s;
}""")
        from repro.hls.cast import CFor
        loop = [s for s in prog.function("f").body.stmts
                if isinstance(s, CFor)][0]
        assert loop.pragmas and "unroll" in loop.pragmas[0]

    def test_roundtrip_through_printer(self):
        src = """
int f(int a, int b) {
    int acc = 0;
    for (int i = 0; i < 4; i++) {
        if (a > b) { acc += i; }
        else { acc -= 1; }
    }
    while (acc > 100) { acc = acc - 7; }
    return acc * 2;
}"""
        printed = program_str(cparse(src))
        reparsed = cparse(printed)
        assert "f" in reparsed.functions
        # Second round trip is a fixed point.
        assert program_str(reparsed) == printed


class TestInterpreter:
    def run(self, src, fn, *args, **kw):
        return Machine(cparse(src), **kw).call(fn, *args)

    def test_arithmetic_and_return(self):
        assert self.run("int f(int a) { return a * 3 + 1; }", "f", 5).value == 16

    def test_signed_division_truncates(self):
        assert self.run("int f() { return -7 / 2; }", "f").value == -3
        assert self.run("int f() { return -7 % 2; }", "f").value == -1

    def test_division_by_zero(self):
        with pytest.raises(CRuntimeError) as exc:
            self.run("int f(int a) { return 1 / a; }", "f", 0)
        assert exc.value.kind == "divzero"

    def test_overflow_wraps_32bit(self):
        assert self.run("int f() { return 2147483647 + 1; }", "f").value \
            == -2147483648

    def test_for_loop_sum(self):
        src = "int f(int n) { int s = 0; for (int i = 1; i <= n; i++) s += i; return s; }"
        assert self.run(src, "f", 10).value == 55

    def test_while_and_break(self):
        src = """
int f() {
    int i = 0;
    while (1) {
        i++;
        if (i == 7) { break; }
    }
    return i;
}"""
        assert self.run(src, "f").value == 7

    def test_continue(self):
        src = """
int f() {
    int s = 0;
    for (int i = 0; i < 10; i++) {
        if (i % 2 == 0) { continue; }
        s += i;
    }
    return s;
}"""
        assert self.run(src, "f").value == 25

    def test_arrays_and_indexing(self):
        src = """
int f() {
    int a[4];
    for (int i = 0; i < 4; i++) a[i] = i * i;
    return a[3] - a[1];
}"""
        assert self.run(src, "f").value == 8

    def test_array_bounds_checked(self):
        with pytest.raises(CRuntimeError) as exc:
            self.run("int f() { int a[2]; return a[5]; }", "f")
        assert exc.value.kind == "bounds"

    def test_array_argument_mutation_visible(self):
        prog = cparse("void f(int a[3]) { a[0] = 99; }")
        data = [1, 2, 3]
        Machine(prog).call("f", data)
        assert data[0] == 99

    def test_malloc_free_and_leak_tracking(self):
        src = """
int f() {
    int *p = malloc(4 * sizeof(int));
    p[2] = 42;
    int v = p[2];
    free(p);
    return v;
}"""
        prog = cparse(src)
        machine = Machine(prog)
        assert machine.call("f").value == 42
        assert machine.live_heap == 0

    def test_use_after_free(self):
        src = "int f() { int *p = malloc(8); free(p); return p[0]; }"
        with pytest.raises(CRuntimeError) as exc:
            self.run(src, "f")
        assert exc.value.kind == "useafterfree"

    def test_double_free(self):
        with pytest.raises(CRuntimeError) as exc:
            self.run("int f() { int *p = malloc(8); free(p); free(p); return 0; }",
                     "f")
        assert exc.value.kind == "doublefree"

    def test_recursion(self):
        src = "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }"
        assert self.run(src, "fact", 6).value == 720

    def test_recursion_depth_limit(self):
        with pytest.raises(CRuntimeError) as exc:
            self.run("int f(int n) { return f(n + 1); }", "f", 0)
        assert exc.value.kind == "stack"

    def test_step_limit(self):
        with pytest.raises(CRuntimeError) as exc:
            Machine(cparse("int f() { while (1) { } return 0; }"),
                    max_steps=10_000).call("f")
        assert exc.value.kind == "timeout"

    def test_store_to_global_writes_through(self):
        src = ("int g; void bump() { g = g + 1; } "
               "int f() { bump(); bump(); return g; }")
        assert self.run(src, "f").value == 2

    def test_global_initializers_are_honoured(self):
        src = "int g = 5; char c = 300; int h = g * 2; int f() { return g + h + c; }"
        assert self.run(src, "f").value == 5 + 10 + 44

    def test_globals_start_fresh_on_every_call(self):
        prog = cparse("int g = 1; int a[2]; int f(int x) { g += x; a[0] += x; "
                      "return g * 10 + a[0]; }")
        machine = Machine(prog)
        assert [machine.call("f", 3).value for _ in range(2)] == [43, 43]

    def test_local_shadows_global(self):
        src = ("int g = 1; int f(int g) { g = g + 10; return g; } "
               "int k() { int r = f(3); return r + g; }")
        assert self.run(src, "k").value == 14

    def test_compiled_code_holds_no_reference_cycle(self):
        # Closures take the machine as an argument and never capture it, so
        # a machine and its compiled code die by reference counting alone.
        src = ("int fib(int n) { if (n < 2) { return n; } "
               "return fib(n - 1) + fib(n - 2); }")
        gc.collect()
        gc.disable()
        try:
            machine = Machine(cparse(src), trace=True)
            assert machine.call("fib", 8).value == 21
            ref = weakref.ref(machine)
            del machine
            assert ref() is None
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_printf_output(self):
        prog = cparse('int f() { printf("v=%d\\n", 42); return 0; }')
        machine = Machine(prog)
        machine.call("f")
        assert machine.output == ["v=42"]

    def test_ternary_and_logical(self):
        src = "int f(int a) { return (a > 2 && a < 10) ? 1 : 0; }"
        assert self.run(src, "f", 5).value == 1
        assert self.run(src, "f", 11).value == 0

    def test_trace_events(self):
        prog = cparse("int f(int a) { int b = a + 1; if (b > 2) { b = 0; } return b; }")
        machine = Machine(prog, trace=True)
        machine.call("f", 5)
        kinds = {e.kind for e in machine.trace}
        assert "assign" in kinds and "branch" in kinds

    @given(st.integers(min_value=-1000, max_value=1000),
           st.integers(min_value=-1000, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_add_matches_python(self, a, b):
        assert self.run("int f(int a, int b) { return a + b; }",
                        "f", a, b).value == a + b


class TestFpgaMode:
    def test_width_override_wraps(self):
        src = "int f(int a) { int acc = a; acc = acc + 200; return acc; }"
        prog = cparse(src)
        cpu = Machine(prog).call("f", 100).value
        fpga = Machine(prog, mode="fpga",
                       width_overrides={"acc": 8}).call("f", 100).value
        assert cpu == 300
        assert fpga != cpu  # 300 wraps in 8 bits

    def test_pipeline_hazard_changes_result(self):
        src = """
int f(int d0, int d1, int d2) {
    int data[3];
    data[0] = d0; data[1] = d1; data[2] = d2;
    int acc = 1;
    for (int i = 0; i < 3; i++) {
    #pragma HLS pipeline II=1
        acc = acc * 3 + data[i];
    }
    return acc;
}"""
        prog = cparse(src)
        cpu = Machine(prog).call("f", 5, 6, 7).value
        fpga = Machine(prog, mode="fpga",
                       pipeline_hazard=True).call("f", 5, 6, 7).value
        assert cpu != fpga

    def test_no_hazard_without_pragma(self):
        src = """
int f(int a) {
    int acc = 1;
    for (int i = 0; i < 3; i++) {
        acc = acc * 2 + a;
    }
    return acc;
}"""
        prog = cparse(src)
        cpu = Machine(prog).call("f", 3).value
        fpga = Machine(prog, mode="fpga", pipeline_hazard=True).call("f", 3).value
        assert cpu == fpga

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            Machine(cparse("int f() { return 0; }"), mode="gpu")
