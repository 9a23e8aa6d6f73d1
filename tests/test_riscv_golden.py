"""Core identity: every program in ``tests/golden/riscv_core.json`` replays
to the recorded :class:`CoreStats`, pickle for pickle, or to the recorded
fault kind and message.

Each case stores its assembly text, an optional ``CoreConfig`` override and
either every ``CoreStats`` field (``unit_ops`` / ``unit_activity`` in their
recorded key order) or ``{"kind", "message"}`` of the ``ExecutionFault``.
The programs are stored as source, so the replay does not depend on the C
compiler or the snippet generators.  Re-record (only from a reviewed
baseline) with::

    PYTHONPATH=src python tests/test_riscv_golden.py --record
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import pickle
import sys

import pytest

from repro.riscv import Core, CoreConfig, CoreStats, ExecutionFault, assemble

GOLDEN = pathlib.Path(__file__).parent / "golden" / "riscv_core.json"


def _cases() -> list[dict]:
    # Missing only while recording; the coverage test below then fails.
    if not GOLDEN.exists():
        return []
    return json.loads(GOLDEN.read_text())["cases"]


def _run(case: dict) -> CoreStats:
    config = CoreConfig(**case.get("config", {}))
    return Core(config).run(assemble(case["asm"]))


@pytest.mark.parametrize("case", _cases(), ids=lambda c: c["name"])
def test_core_replays_golden(case):
    if "fault" in case:
        with pytest.raises(ExecutionFault) as info:
            _run(case)
        assert info.value.kind == case["fault"]["kind"]
        assert str(info.value) == case["fault"]["message"]
        return
    stats = _run(case)
    expected = CoreStats(**case["stats"])
    assert stats == expected
    assert list(stats.unit_ops) == list(expected.unit_ops)
    assert list(stats.unit_activity) == list(expected.unit_activity)
    assert pickle.dumps(stats) == pickle.dumps(expected)


def test_golden_covers_the_corner_cases():
    names = {case["name"] for case in _cases()}
    for required in ("corner_div_rem_edges", "corner_load_sign",
                     "corner_partial_stores", "corner_jalr_mispredicts",
                     "corner_div_chain_fills_rob", "corner_retire_width_bump",
                     "fault_branch_out_of_code", "fault_fall_off_end",
                     "fault_timeout"):
        assert required in names
    assert sum(name.startswith("seed_") for name in names) >= 5
    assert sum(name.startswith("llm_") for name in names) >= 3
    assert sum(name.startswith("gp_") for name in names) >= 3


# -- recording -----------------------------------------------------------------

# Every program of tests/test_riscv.py, as assembly or as C.
_TEST_RISCV_ASM = {
    "labels_and_branches": "_start:\n    li t0, 3\nloop:\n"
                           "    addi t0, t0, -1\n    bnez t0, loop\n    halt\n",
    "li_large_constant": "_start:\n  li a0, 0x12345\n  halt",
    "li_negative": "_start:\n  li a0, -5\n  halt",
    "memory_operands": "_start:\n    li sp, 0x1000\n    li t0, 77\n"
                       "    sw t0, -4(sp)\n    lw a0, -4(sp)\n    halt\n",
    "pseudo_instructions": "_start:\n    li t0, 5\n    mv a0, t0\n"
                           "    neg a0, a0\n    not a0, a0\n    halt\n",
    "disassembly_roundtrip": "_start:\n  li t0, 3\n  add a0, t0, t0\n  halt",
}
_TEST_RISCV_C = {
    "arith": "int main() { return 6 * 7; }",
    "locals": "int main() { int x = 10; x += 5; x *= 2; return x; }",
    "if_else": "int main() { int a = 3; if (a > 2) { return 1; } "
               "else { return 0; } }",
    "for_loop": "int main() { int s = 0; "
                "for (int i = 1; i <= 10; i++) { s += i; } return s; }",
    "while_break_continue": """
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
}""",
    "arrays": """
int main() {
    int a[5];
    for (int i = 0; i < 5; i++) { a[i] = i * i; }
    int s = 0;
    for (int i = 0; i < 5; i++) { s += a[i]; }
    return s;
}""",
    "function_calls": """
int square(int x) { return x * x; }
int main() {
    int a = square(5);
    int b = square(6);
    return a + b;
}""",
    "recursion": """
int fib(int n) {
    if (n < 2) { return n; }
    int a = fib(n - 1);
    int b = fib(n - 2);
    return a + b;
}
int main() { return fib(10); }""",
    "division_and_modulo": "int main() { return 100 / 7 + 100 % 7; }",
    "ternary": "int main() { int a = 5; return a > 3 ? 10 : 20; }",
    "short_circuit": "int main() { int a = 0; "
                     "return (a != 0 && 10 / a > 1) ? 1 : 2; }",
    "abs_min_max": "int main() { return abs(0 - 5) + min(3, 9) + max(3, 9); }",
    "matches_interpreter": """
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
""",
    "ipc_loop": "int main() { int s = 0; for (int i = 0; i < 500; i++) "
                "{ s += i; } return s; }",
    "branch_stats": "int main() { int s = 0; for (int i = 0; i < 100; i++) "
                    "{ if (i % 3 == 0) { s += 1; } } return s; }",
    "cache_strides": """
int main() {
    int a[16];
    int s = 0;
    for (int r = 0; r < 20; r++)
        for (int i = 0; i < 16; i++) { a[i] = i; s += a[i]; }
    return s;
}""",
    "unit_activity": "int main() { int s = 1; for (int i = 0; i < 100; i++) "
                     "{ s = s * 3 + i; } return s; }",
    "power_floor": "int main() { int s = 0; for (int i = 0; i < 200; "
                   "i++) { s += i; } return s; }",
    "power_lean": "int main() { int s = 0; for (int i = 0; i < 300; "
                  "i++) { s = s | 1; } return s; }",
    "power_muls": """
int main() {
    int a = 0x5A5A; int b = 0x1234; int s1 = 1; int s2 = 2;
    for (int i = 0; i < 300; i++) {
        s1 = s1 + a * b; s2 = s2 + b * s1; a = a ^ s2; b = b + 7;
    }
    return s1 + s2;
}""",
    "return_one": "int main() { return 1; }",
    "return_three": "int main() { return 3; }",
}

# Hand-written corner cases of the functional and timing models.
_CORNERS = {
    "div_rem_edges": """
_start:
    li t0, 0x80000000
    li t1, -1
    li t2, 7
    li t3, -7
    div a0, t0, t1
    rem a1, t0, t1
    div a2, t2, zero
    rem a3, t2, zero
    divu a4, t2, zero
    remu a5, t3, zero
    divu a6, t0, t1
    remu a7, t3, t2
    div s2, t3, t2
    rem s3, t3, t2
    div s4, t2, t3
    rem s5, t2, t3
    xor a0, a0, a1
    add a0, a0, a2
    xor a0, a0, a3
    add a0, a0, a4
    xor a0, a0, a5
    add a0, a0, a6
    xor a0, a0, a7
    add a0, a0, s2
    xor a0, a0, s3
    add a0, a0, s4
    xor a0, a0, s5
    halt
""",
    "load_sign": """
_start:
    li sp, 0x2000
    li t0, 0x80FF7F80
    sw t0, 0(sp)
    lb a1, 0(sp)
    lb a2, 1(sp)
    lb a3, 2(sp)
    lb a4, 3(sp)
    lbu a5, 0(sp)
    lbu a6, 3(sp)
    lh a7, 0(sp)
    lh s2, 2(sp)
    lhu s3, 0(sp)
    lhu s4, 2(sp)
    lw s5, 0(sp)
    lw s6, 64(sp)
    add a0, a1, a2
    xor a0, a0, a3
    add a0, a0, a4
    xor a0, a0, a5
    add a0, a0, a6
    xor a0, a0, a7
    add a0, a0, s2
    xor a0, a0, s3
    add a0, a0, s4
    xor a0, a0, s5
    add a0, a0, s6
    halt
""",
    "misaligned_halves": """
_start:
    li sp, 0x2400
    li t0, 0x80FF7F80
    sw t0, 0(sp)
    lh a1, 3(sp)
    lhu a2, 3(sp)
    lh a3, 1(sp)
    lw a4, 2(sp)
    li t1, 0xBEEF
    sh t1, 3(sp)
    sh t1, 5(sp)
    lw a5, 0(sp)
    lw a6, 4(sp)
    add a0, a1, a2
    xor a0, a0, a3
    add a0, a0, a4
    xor a0, a0, a5
    add a0, a0, a6
    halt
""",
    "partial_stores": """
_start:
    li sp, 0x3000
    li t0, 0x11223344
    sw t0, 0(sp)
    li t1, 0xAB
    sb t1, 1(sp)
    li t2, -2
    sh t2, 2(sp)
    sb t2, 4(sp)
    sh t0, 6(sp)
    lw a1, 0(sp)
    lw a2, 4(sp)
    lbu a3, 2(sp)
    lh a4, 6(sp)
    xor a0, a1, a2
    add a0, a0, a3
    xor a0, a0, a4
    halt
""",
    "jalr_mispredicts": """
_start:
    li s1, 12
    li a0, 0
loop:
    call bump
    addi s1, s1, -1
    bnez s1, loop
    li t0, 0
    beqz t0, skip
    addi a0, a0, 100
skip:
    halt
bump:
    addi a0, a0, 3
    slli a0, a0, 1
    ret
""",
    "div_chain_fills_rob": """
_start:
    li t0, 1000000
    li t1, 3
    div t2, t0, t1
    div t3, t2, t1
    div t4, t3, t1
    div t5, t4, t1
    div t6, t5, t1
    div a1, t6, t1
    addi a2, zero, 1
    addi a3, zero, 2
    addi a4, zero, 3
    addi a5, zero, 4
    addi a6, zero, 5
    addi a7, zero, 6
    addi s2, zero, 7
    addi s3, zero, 8
    addi s4, zero, 9
    addi s5, zero, 10
    addi s6, zero, 11
    addi s7, zero, 12
    addi s8, zero, 13
    addi s9, zero, 14
    addi s10, zero, 15
    addi s11, zero, 16
    add a2, a2, a3
    add a4, a4, a5
    add a6, a6, a7
    add s2, s2, s3
    add s4, s4, s5
    add s6, s6, s7
    add s8, s8, s9
    add s10, s10, s11
    add a2, a2, a4
    add a6, a6, s2
    add s4, s4, s6
    add s8, s8, s10
    add a2, a2, a6
    add s4, s4, s8
    add a2, a2, s4
    add a0, a1, a2
    mul a3, a0, a0
    add a0, a0, a3
    halt
""",
    "retire_width_bump": """
_start:
    li t0, 99
    li t1, 5
    div t2, t0, t1
    addi a1, zero, 1
    addi a2, zero, 2
    addi a3, zero, 3
    addi a4, zero, 4
    addi a5, zero, 5
    addi a6, zero, 6
    addi a7, zero, 7
    add a0, t2, a1
    add a0, a0, a7
    halt
""",
    "alu_signedness": """
_start:
    li t0, -20
    li t1, 3
    li t2, 0x7FFFFFFF
    li t3, 0xF0000001
    sra a1, t0, t1
    srai a2, t3, 4
    srl a3, t3, t1
    srli a4, t0, 28
    sll a5, t2, t1
    slli a6, t3, 31
    li t4, 35
    sll a7, t1, t4
    slt s2, t0, t1
    sltu s3, t0, t1
    slti s4, t0, -19
    sltiu s5, t1, -1
    andi s6, t3, -16
    ori s7, t1, -256
    xori s8, t0, -1
    mulh s9, t0, t2
    mulhu s10, t0, t3
    mulhsu s11, t0, t3
    mul t5, t2, t2
    lui t6, 0xFFFFF
    auipc t4, 1
    add a0, a1, a2
    xor a0, a0, a3
    add a0, a0, a4
    xor a0, a0, a5
    add a0, a0, a6
    xor a0, a0, a7
    add a0, a0, s2
    xor a0, a0, s3
    add a0, a0, s4
    xor a0, a0, s5
    add a0, a0, s6
    xor a0, a0, s7
    add a0, a0, s8
    xor a0, a0, s9
    add a0, a0, s10
    xor a0, a0, s11
    add a0, a0, t5
    xor a0, a0, t6
    add a0, a0, t4
    sub a0, a0, t2
    or a0, a0, t1
    and a0, a0, t3
    halt
""",
    "branch_signedness": """
_start:
    li t0, -1
    li t1, 1
    li a0, 0
    blt t0, t1, b1
    addi a0, a0, 1
b1:
    bltu t0, t1, b2
    addi a0, a0, 2
b2:
    bge t0, t1, b3
    addi a0, a0, 4
b3:
    bgeu t0, t1, b4
    addi a0, a0, 8
b4:
    beq t0, t0, b5
    addi a0, a0, 16
b5:
    bne t0, t0, b6
    addi a0, a0, 32
b6:
    li t2, 5
back:
    addi t2, t2, -1
    bge t2, zero, back
    halt
""",
    "cache_conflicts": """
_start:
    li s1, 6
    li a0, 0
    li t0, 0x4000
    li t1, 0x4400
outer:
    lw t2, 0(t0)
    lw t3, 0(t1)
    add a0, a0, t2
    sw a0, 0(t0)
    sw a0, 4(t1)
    lw t4, 8(t0)
    addi a0, a0, 1
    addi s1, s1, -1
    bnez s1, outer
    halt
""",
}

# Faults: each must raise with the recorded kind and message.
_FAULTS = {
    "branch_out_of_code": ("_start:\n    li t0, 1\n    bne t0, zero, 40\n"
                           "    halt\n", {}),
    "branch_before_start": ("_start:\n    li t0, 1\n    bne t0, zero, -40\n"
                            "    halt\n", {}),
    "fall_off_end": ("_start:\n    li a0, 1\n    addi a0, a0, 2\n", {}),
    "jalr_out_of_code": ("_start:\n    li t0, 4000\n    jalr zero, t0, 0\n"
                         "    halt\n", {}),
    "timeout": ("_start:\nspin:\n  j spin", {"max_instructions": 1000}),
    "timeout_c_loop": (None, {"max_instructions": 500}),
}

# Non-default configurations exercise every width, size and unit count.
_CONFIGS = {
    "narrow": {"fetch_width": 1, "retire_width": 1, "rob_size": 4},
    "wide": {"fetch_width": 4, "retire_width": 3, "rob_size": 64,
             "alu_units": 3, "mul_units": 2, "div_units": 2, "lsu_units": 2,
             "branch_units": 2},
    "small_cache": {"cache_lines": 4, "cache_miss_latency": 33,
                    "cache_hit_latency": 1, "mispredict_penalty": 11},
}


def _slt_sources() -> dict[str, list[str]]:
    """C programs the SLT loops send to the rig, first distinct ones first."""
    from repro.riscv import FpgaPowerMeter
    from repro.slt import run_gp_slt, run_llm_slt

    seen: list[str] = []

    class Recorder(FpgaPowerMeter):
        def measure_c(self, c_source, entry="main"):
            if c_source not in seen:
                seen.append(c_source)
            return super().measure_c(c_source, entry)

    def capture(run, meter_seed: int, **kwargs) -> list[str]:
        seen.clear()
        run(meter=Recorder(seed=meter_seed), hours=0.2, **kwargs)
        return list(seen)

    return {
        "llm": capture(run_llm_slt, 0, seed=0),
        "gp": capture(run_gp_slt, 1000, seed=0, realistic_only=True),
        "gpfree": capture(run_gp_slt, 1001, seed=1),
    }


def _record_case(name: str, asm: str, config: dict) -> dict:
    case = {"name": name, "asm": asm}
    if config:
        case["config"] = config
    try:
        stats = Core(CoreConfig(**config)).run(assemble(asm))
    except ExecutionFault as exc:
        case["fault"] = {"kind": exc.kind, "message": str(exc)}
    else:
        case["stats"] = dataclasses.asdict(stats)
    return case


def record() -> None:
    from repro.riscv import compile_program
    from repro.slt import HANDWRITTEN_SEEDS

    cases: list[dict] = []
    for i, genome in enumerate(HANDWRITTEN_SEEDS):
        cases.append(_record_case(f"seed_{i}",
                                  compile_program(genome.render()), {}))
    for name, asm in _TEST_RISCV_ASM.items():
        cases.append(_record_case(f"test_riscv_{name}", asm, {}))
    for name, src in _TEST_RISCV_C.items():
        cases.append(_record_case(f"test_riscv_{name}",
                                  compile_program(src), {}))
    # Both loops measure the seeds first; keep generated snippets only,
    # and leave out large unconstrained GP genomes, which make a slow test.
    seeds = {genome.render() for genome in HANDWRITTEN_SEEDS}
    for kind, sources in _slt_sources().items():
        kept = 0
        for src in sources:
            if src in seeds:
                continue
            case = _record_case(f"{kind}_{kept}", compile_program(src), {})
            if case.get("stats", {}).get("instret", 0) > 150_000:
                continue
            cases.append(case)
            kept += 1
            if kept == 4:
                break
    for name, asm in _CORNERS.items():
        cases.append(_record_case(f"corner_{name}", asm, {}))
    for name, (asm, config) in _FAULTS.items():
        if asm is None:
            asm = compile_program("int main() { while (1) { } return 0; }")
        cases.append(_record_case(f"fault_{name}", asm, config))
    base = cases[0]["asm"]
    for name, config in _CONFIGS.items():
        cases.append(_record_case(f"config_{name}_seed_0", base, config))
        cases.append(_record_case(f"config_{name}_div_chain",
                                  _CORNERS["div_chain_fills_rob"], config))
    GOLDEN.write_text(json.dumps({"cases": cases}, indent=1) + "\n")
    print(f"recorded {len(cases)} cases to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
