"""Tests for the RISC-V substrate: ISA, assembler, compiler, core, power."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hls import Machine, cparse
from repro.riscv import (AsmError, CompileError, CoreConfig, CoreStats,
                         ExecutionFault, FpgaPowerMeter, Instruction,
                         STATIC_POWER_W, assemble, compile_program, decode,
                         encode, estimate_power, parse_register, run_program)
from repro.riscv.core import Core


class TestIsa:
    def test_register_names(self):
        assert parse_register("sp") == 2
        assert parse_register("x31") == 31
        assert parse_register("a0") == 10
        with pytest.raises(ValueError):
            parse_register("x32")

    @pytest.mark.parametrize("instr", [
        Instruction("add", rd=1, rs1=2, rs2=3),
        Instruction("sub", rd=31, rs1=0, rs2=15),
        Instruction("mul", rd=5, rs1=6, rs2=7),
        Instruction("div", rd=5, rs1=6, rs2=7),
        Instruction("addi", rd=4, rs1=4, imm=-7),
        Instruction("slli", rd=4, rs1=4, imm=5),
        Instruction("srai", rd=4, rs1=4, imm=3),
        Instruction("lw", rd=8, rs1=2, imm=-12),
        Instruction("sw", rs1=2, rs2=9, imm=2040),
        Instruction("beq", rs1=1, rs2=2, imm=-8),
        Instruction("bge", rs1=1, rs2=2, imm=4094),
        Instruction("jal", rd=1, imm=2048),
        Instruction("jalr", rd=0, rs1=1, imm=0),
        Instruction("lui", rd=3, imm=0xFFFFF),
    ], ids=str)
    def test_encode_decode_roundtrip(self, instr):
        decoded = decode(encode(instr))
        assert decoded.mnemonic == instr.mnemonic
        assert decoded.rd == instr.rd or instr.spec.fmt in ("S", "B")
        if instr.spec.fmt in ("I", "S", "B", "J", "U"):
            assert decoded.imm == instr.imm

    @given(st.sampled_from(["add", "sub", "xor", "and", "mul", "rem"]),
           st.integers(0, 31), st.integers(0, 31), st.integers(0, 31))
    @settings(max_examples=40, deadline=None)
    def test_rtype_roundtrip_property(self, m, rd, rs1, rs2):
        instr = Instruction(m, rd=rd, rs1=rs1, rs2=rs2)
        decoded = decode(encode(instr))
        assert (decoded.mnemonic, decoded.rd, decoded.rs1, decoded.rs2) \
            == (m, rd, rs1, rs2)

    def test_decode_garbage_raises(self):
        with pytest.raises(ValueError):
            decode(0xFFFFFFFF)


class TestAssembler:
    def test_labels_and_branches(self):
        prog = assemble("""
_start:
    li t0, 3
loop:
    addi t0, t0, -1
    bnez t0, loop
    halt
""")
        assert "loop" in prog.labels
        stats = run_program(prog)
        assert stats.halted

    def test_li_large_constant(self):
        prog = assemble("_start:\n  li a0, 0x12345\n  halt")
        stats = run_program(prog)
        assert stats.return_value == 0x12345

    def test_li_negative(self):
        prog = assemble("_start:\n  li a0, -5\n  halt")
        assert run_program(prog).return_value == -5

    def test_memory_operands(self):
        prog = assemble("""
_start:
    li sp, 0x1000
    li t0, 77
    sw t0, -4(sp)
    lw a0, -4(sp)
    halt
""")
        assert run_program(prog).return_value == 77

    def test_pseudo_instructions(self):
        prog = assemble("""
_start:
    li t0, 5
    mv a0, t0
    neg a0, a0
    not a0, a0
    halt
""")
        # not(neg(5)) = not(-5) = 4
        assert run_program(prog).return_value == 4

    def test_undefined_label(self):
        with pytest.raises(AsmError):
            assemble("_start:\n  j nowhere")

    def test_unknown_mnemonic(self):
        with pytest.raises(AsmError):
            assemble("_start:\n  frobnicate a0, a1")

    def test_disassembly_roundtrip(self):
        prog = assemble("_start:\n  li t0, 3\n  add a0, t0, t0\n  halt")
        text = prog.disassemble()
        assert "add a0, t0, t0" in text


class TestCompiler:
    def run_c(self, src, expect=None):
        prog = assemble(compile_program(src))
        stats = run_program(prog)
        if expect is not None:
            assert stats.return_value == expect
        return stats

    def test_arith(self):
        self.run_c("int main() { return 6 * 7; }", 42)

    def test_locals_and_compound_assign(self):
        self.run_c("int main() { int x = 10; x += 5; x *= 2; return x; }", 30)

    def test_if_else(self):
        self.run_c("int main() { int a = 3; if (a > 2) { return 1; } "
                   "else { return 0; } }", 1)

    def test_for_loop(self):
        self.run_c("int main() { int s = 0; "
                   "for (int i = 1; i <= 10; i++) { s += i; } return s; }", 55)

    def test_while_break_continue(self):
        self.run_c("""
int main() {
    int s = 0;
    int i = 0;
    while (1) {
        i++;
        if (i > 10) { break; }
        if (i % 2 == 0) { continue; }
        s += i;
    }
    return s;
}""", 25)

    def test_arrays(self):
        self.run_c("""
int main() {
    int a[5];
    for (int i = 0; i < 5; i++) { a[i] = i * i; }
    int s = 0;
    for (int i = 0; i < 5; i++) { s += a[i]; }
    return s;
}""", 30)

    def test_function_calls(self):
        self.run_c("""
int square(int x) { return x * x; }
int main() {
    int a = square(5);
    int b = square(6);
    return a + b;
}""", 61)

    def test_recursion(self):
        self.run_c("""
int fib(int n) {
    if (n < 2) { return n; }
    int a = fib(n - 1);
    int b = fib(n - 2);
    return a + b;
}
int main() { return fib(10); }""", 55)

    def test_division_and_modulo(self):
        self.run_c("int main() { return 100 / 7 + 100 % 7; }", 16)

    def test_ternary(self):
        self.run_c("int main() { int a = 5; return a > 3 ? 10 : 20; }", 10)

    def test_logical_short_circuit(self):
        self.run_c("int main() { int a = 0; "
                   "return (a != 0 && 10 / a > 1) ? 1 : 2; }", 2)

    def test_builtin_abs_min_max(self):
        self.run_c("int main() { return abs(0 - 5) + min(3, 9) + max(3, 9); }",
                   17)

    def test_matches_interpreter(self):
        """Cross-check: the compiler+core agree with the C interpreter."""
        src = """
int work(int n) {
    int arr[8];
    int acc = 0;
    for (int i = 0; i < 8; i++) { arr[i] = i * n + (i ^ n); }
    for (int i = 0; i < 8; i++) {
        if (arr[i] % 3 == 0) { acc += arr[i]; }
        else { acc -= i; }
    }
    return acc;
}
int main() { return work(7); }
"""
        interp = Machine(cparse(src)).call("work", 7).value
        core = self.run_c(src).return_value
        assert interp == core

    def test_too_many_params(self):
        with pytest.raises(CompileError):
            compile_program("int f(int a, int b, int c, int d, int e, "
                            "int f_, int g) { return 0; } int main() { return 0; }")

    def test_undefined_variable(self):
        with pytest.raises(CompileError):
            compile_program("int main() { return ghost; }")


class TestCore:
    def test_ipc_bounded_by_fetch_width(self):
        stats = run_program(assemble(compile_program(
            "int main() { int s = 0; for (int i = 0; i < 500; i++) "
            "{ s += i; } return s; }")))
        assert 0 < stats.ipc <= CoreConfig().fetch_width

    def test_timeout_detection(self):
        src = "_start:\nspin:\n  j spin"
        with pytest.raises(ExecutionFault):
            Core(CoreConfig(max_instructions=1000)).run(assemble(src))

    def test_branch_stats_tracked(self):
        stats = run_program(assemble(compile_program(
            "int main() { int s = 0; for (int i = 0; i < 100; i++) "
            "{ if (i % 3 == 0) { s += 1; } } return s; }")))
        assert stats.branch_count > 100
        assert 0 <= stats.mispredict_rate <= 1

    def test_cache_misses_for_large_strides(self):
        small = run_program(assemble(compile_program("""
int main() {
    int a[16];
    int s = 0;
    for (int r = 0; r < 20; r++)
        for (int i = 0; i < 16; i++) { a[i] = i; s += a[i]; }
    return s;
}""")))
        assert small.cache_misses < small.mem_reads + small.mem_writes

    def test_unit_activity_in_range(self):
        stats = run_program(assemble(compile_program(
            "int main() { int s = 1; for (int i = 0; i < 100; i++) "
            "{ s = s * 3 + i; } return s; }")))
        for unit, act in stats.unit_activity.items():
            assert 0.0 <= act <= 1.0, unit


_COUNTDOWN = """
_start:
    li t0, 5
loop:
    addi t0, t0, -1
    bnez t0, loop
    halt
"""


_LOOP = """
_start:
    li t0, {n}
loop:
    addi t0, t0, -1
    xor a0, a0, t0
    add a1, a1, a0
    bnez t0, loop
    halt
"""


class TestCoreFaults:
    """Fault paths and memory; the ``pcrange`` cases (branches out of
    code, falling off the end, ``jalr`` away) are golden-fixture cases in
    tests/test_riscv_golden.py."""

    def test_max_instructions_boundary(self):
        program = assemble(_COUNTDOWN)
        retired = run_program(program).instret
        assert retired == 12          # li, 5 x (addi, bnez), halt
        exact = Core(CoreConfig(max_instructions=retired)).run(program)
        assert exact == run_program(program)
        with pytest.raises(ExecutionFault) as info:
            Core(CoreConfig(max_instructions=retired - 1)).run(program)
        assert info.value.kind == "timeout"
        assert str(info.value) == \
            f"[CPU:timeout] exceeded {retired - 1} dynamic instructions"

    def test_traced_peak_is_independent_of_dynamic_length(self):
        """Under tracemalloc a 10k-instruction loop peaks at a few KB; a
        per-instruction record would cost ~1 MB.  (Tracing runs the core
        ~50x slower, so the 1 M-instruction check below reads RSS.)"""
        import tracemalloc
        program = assemble(_LOOP.format(n=2500))
        tracemalloc.start()
        try:
            stats = run_program(program)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.instret == 10_003
        assert peak < 64 * 1024

    def test_rss_flat_over_a_million_instructions(self):
        import os
        import subprocess
        import sys

        import repro
        script = (
            "import resource, sys\n"
            "from repro.riscv import assemble, run_program\n"
            "program = assemble(sys.argv[1])\n"
            "rss = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "before = rss()\n"
            "assert run_program(program).instret == 1_000_003\n"
            "print(rss() - before)\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        out = subprocess.run([sys.executable, "-c", script,
                              _LOOP.format(n=250_000)],
                             env=dict(os.environ, PYTHONPATH=src), check=True,
                             capture_output=True, text=True, timeout=300)
        assert int(out.stdout) < 8 * 1024    # KB on Linux

    def test_pc_hits_count_every_executed_instruction(self):
        program = assemble(_COUNTDOWN)
        hits = [0] * len(program)
        stats = Core().run(program, pc_hits=hits)
        assert hits == [1, 5, 5, 1]
        assert sum(hits) == stats.instret
        assert stats == run_program(program)

    def test_one_span_per_run(self):
        from repro import obs
        sink = obs.InMemorySink()
        obs.install_tracer(obs.Tracer(sink, enabled=True))
        try:
            stats = run_program(assemble(_COUNTDOWN))
        finally:
            obs.reset_tracer()
        spans = [r for r in sink.spans() if r["name"] == "riscv.core.run"]
        assert len(spans) == 1
        assert spans[0]["attrs"] == {"instret": stats.instret,
                                     "cycles": stats.cycles,
                                     "ipc": round(stats.ipc, 4)}


class TestKernelProfiling:
    def test_extract_kernels_runs_the_program_once(self, monkeypatch):
        from repro.hls import extract_kernels
        runs = []
        real_run = Core.run

        def counting_run(self, program, pc_hits=None):
            runs.append(pc_hits is not None)
            return real_run(self, program, pc_hits)

        monkeypatch.setattr(Core, "run", counting_run)
        report = extract_kernels("""
int sq(int x) { return x * x; }
int cube(int x) { return x * sq(x); }
int main() { int s = 0; for (int i = 0; i < 9; i++) { s += cube(i); }
             return s; }""", min_share=0.0)
        assert runs == [True]
        calls = {p.function: p.calls for p in report.profiles}
        assert calls == {"main": 1, "cube": 9, "sq": 9}
        assert [p.function for p in report.plans] == ["cube", "sq"]


class TestPower:
    def _stats(self, src) -> CoreStats:
        return run_program(assemble(compile_program(src)))

    def test_power_above_static_floor(self):
        stats = self._stats("int main() { int s = 0; for (int i = 0; i < 200; "
                            "i++) { s += i; } return s; }")
        power = estimate_power(stats)
        assert power.total_w > STATIC_POWER_W

    def test_mul_heavy_burns_more_than_idleish(self):
        lean = self._stats("int main() { int s = 0; for (int i = 0; i < 300; "
                           "i++) { s = s | 1; } return s; }")
        muls = self._stats("""
int main() {
    int a = 0x5A5A; int b = 0x1234; int s1 = 1; int s2 = 2;
    for (int i = 0; i < 300; i++) {
        s1 = s1 + a * b; s2 = s2 + b * s1; a = a ^ s2; b = b + 7;
    }
    return s1 + s2;
}""")
        assert estimate_power(muls).unit_w["mul"] \
            > estimate_power(lean).unit_w["mul"]

    def test_breakdown_sums_to_total(self):
        stats = self._stats("int main() { return 1; }")
        p = estimate_power(stats)
        parts = (p.static_w + p.frontend_w + p.rob_w + sum(p.unit_w.values())
                 + p.branch_recovery_w + p.memory_w)
        assert p.total_w == pytest.approx(parts)


class TestFpgaMeter:
    def test_measurement_advances_clock(self):
        meter = FpgaPowerMeter(seed=1)
        m = meter.measure_c("int main() { return 3; }")
        assert m.ok and m.watts > 0
        assert meter.elapsed_seconds == pytest.approx(
            meter.seconds_per_measurement)

    def test_noise_is_seeded(self):
        a = FpgaPowerMeter(seed=5).measure_c("int main() { return 3; }").watts
        b = FpgaPowerMeter(seed=5).measure_c("int main() { return 3; }").watts
        assert a == b

    def test_compile_error_fails_fast(self):
        meter = FpgaPowerMeter(seed=1)
        m = meter.measure_c("int main( {")
        assert not m.ok
        assert meter.elapsed_seconds == pytest.approx(
            meter.seconds_per_failure)

    def test_runtime_fault_scores_zero(self):
        meter = FpgaPowerMeter(seed=1,
                               config=CoreConfig(max_instructions=500))
        m = meter.measure_c("int main() { while (1) { } return 0; }")
        assert not m.ok and "timeout" in m.error


_LOOP_C = """int main() {
    int acc = 1;
    for (int i = 0; i < %d; i++) { acc = acc * 3 + i; }
    return acc;
}"""


class TestRigMemo:
    """The rig memoizes builds and core runs; nothing a meter reports may
    tell a memo hit from a fresh measurement."""

    @pytest.fixture(autouse=True)
    def _fresh_memos(self, monkeypatch):
        from repro.riscv import fpga
        from repro.store import LruCache
        monkeypatch.setattr(fpga, "_BUILDS",
                            LruCache(fpga.RIG_MEMO_CAPACITY))
        monkeypatch.setattr(fpga, "_RUNS", LruCache(fpga.RIG_MEMO_CAPACITY))
        return fpga

    @staticmethod
    def _traffic(meter, before_each=lambda: None):
        """Repeats, a compile failure, an assemble failure, a timeout
        fault and a hand-built program, each more than once."""
        from repro.riscv import Program
        hand = assemble(compile_program(_LOOP_C % 30))
        hand = Program(hand.instructions, hand.labels)
        assert hand.source == ""
        calls = [("c", _LOOP_C % 20), ("c", _LOOP_C % 50),
                 ("c", _LOOP_C % 20), ("c", "int main( {"),
                 ("asm", "bogus x1, x2"), ("c", _LOOP_C % 5000),
                 ("program", hand), ("c", _LOOP_C % 20),
                 ("c", "int main( {"), ("c", _LOOP_C % 5000),
                 ("asm", compile_program(_LOOP_C % 50)),
                 ("asm", "bogus x1, x2"), ("program", hand),
                 ("c", _LOOP_C % 50)]
        readings = []
        for kind, arg in calls:
            before_each()
            measure = {"c": meter.measure_c, "asm": meter.measure_asm,
                       "program": meter.measure_program}[kind]
            readings.append(measure(arg))
        return readings

    def test_memo_changes_no_reading_clock_or_noise(self, _fresh_memos):
        fpga = _fresh_memos
        config = CoreConfig(max_instructions=20_000)
        memo = FpgaPowerMeter(config=config, seed=9)
        cold = FpgaPowerMeter(config=config, seed=9)
        hot = self._traffic(memo)
        assert fpga._RUNS.stats.hits >= 5 and fpga._BUILDS.stats.hits >= 5

        def clear():
            fpga._BUILDS.clear()
            fpga._RUNS.clear()

        fresh = self._traffic(cold, before_each=clear)
        assert hot == fresh
        assert [m.error.split(":")[0] for m in hot if not m.ok] == \
            ["compile", "assemble", "[CPU", "compile", "[CPU", "assemble"]
        assert memo.elapsed_seconds == cold.elapsed_seconds
        assert memo.measurements == cold.measurements == 10
        assert memo._rng.getstate() == cold._rng.getstate()

    def test_overridden_measure_program_sees_every_measurement(
            self, _fresh_memos):
        class CountingMeter(FpgaPowerMeter):
            calls = 0

            def measure_program(self, program):
                self.calls += 1
                return super().measure_program(program)

        meter = CountingMeter(seed=2)
        for _ in range(4):
            assert meter.measure_c(_LOOP_C % 20).ok
        assert not meter.measure_c("int main( {").ok
        assert _fresh_memos._RUNS.stats.hits == 3
        assert meter.calls == meter.measurements == 4

    def test_returned_stats_cannot_poison_the_memo(self, _fresh_memos):
        meter = FpgaPowerMeter(seed=4)
        first = meter.measure_c(_LOOP_C % 20).stats
        pristine = CoreStats(**{**first.__dict__,
                                "unit_ops": dict(first.unit_ops),
                                "unit_activity": dict(first.unit_activity)})
        for stats in (first, meter.measure_c(_LOOP_C % 20).stats):
            assert stats == pristine
            stats.instret = -1
            stats.unit_ops["alu"] = 10 ** 9
            stats.unit_activity.clear()
        assert meter.measure_c(_LOOP_C % 20).stats == pristine
        assert _fresh_memos._RUNS.stats.hits == 2

    def test_an_edited_program_is_not_served_from_the_memo(
            self, _fresh_memos):
        import dataclasses
        import pickle
        meter = FpgaPowerMeter(seed=5)
        short = assemble(compile_program(_LOOP_C % 20))
        long = assemble(compile_program(_LOOP_C % 50))
        assert meter.measure_program(short).ok
        with pytest.raises(dataclasses.FrozenInstanceError):
            short.instructions = long.instructions
        with pytest.raises(AttributeError):
            short.instructions.append(long.instructions[0])
        with pytest.raises(TypeError):
            short.labels["_start"] = 1
        edited = dataclasses.replace(short, instructions=long.instructions,
                                     labels=long.labels)
        assert edited.source == ""
        assert meter.measure_program(edited).stats == \
            Core(meter.config).run(long)
        assert _fresh_memos._RUNS.stats.hits == 0
        copy = pickle.loads(pickle.dumps(short))
        assert copy == short and copy.source == short.source
        assert meter.measure_program(copy).ok
        assert _fresh_memos._RUNS.stats.hits == 1

    def test_threads_sharing_the_memo_read_what_a_serial_run_reads(
            self, _fresh_memos):
        import sys
        import threading

        sources = [_LOOP_C % n for n in (10, 20, 30, 40)] * 3

        def readings(seed):
            meter = FpgaPowerMeter(seed=seed)
            return [meter.measure_c(src) for src in sources]

        serial = [readings(seed) for seed in range(8)]
        _fresh_memos._BUILDS.clear()
        _fresh_memos._RUNS.clear()
        results: dict[int, list] = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(
                target=lambda s=seed: results.__setitem__(s, readings(s)))
                for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert [results[seed] for seed in range(8)] == serial
