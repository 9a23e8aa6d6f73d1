"""Co-simulation: C interpreter vs generated RTL, and CPU vs FPGA modes.

Two equivalence oracles:

* :func:`c_rtl_cosim` — the "Equivalence Verification" stage of the repair
  loop (Fig. 2 stage 3): run the repaired C through the interpreter and its
  generated RTL through the mini-Verilog simulator on shared random vectors.
* :func:`cpu_fpga_cosim` — the discrepancy oracle HLSTester uses (Fig. 3):
  CPU-mode interpretation vs FPGA-mode interpretation (custom bit widths +
  pipeline hazards) of the *same* program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..hdl.testbench import StimulusRunner
from .cast import CProgram
from .interp import CRuntimeError, Machine
from .rtlgen import GeneratedRtl, RtlGenError, generate_rtl


@dataclass
class CosimMismatch:
    inputs: dict
    expected: int | None
    actual: int | None
    note: str = ""


@dataclass
class CosimReport:
    vectors_run: int = 0
    mismatches: list[CosimMismatch] = field(default_factory=list)
    runtime_errors: int = 0
    skipped_reason: str = ""

    @property
    def equivalent(self) -> bool:
        return not self.mismatches and not self.skipped_reason \
            and self.vectors_run > 0

    def summary(self) -> str:
        if self.skipped_reason:
            return f"cosim skipped: {self.skipped_reason}"
        status = "PASS" if self.equivalent else "FAIL"
        return (f"cosim {status}: {self.vectors_run} vectors, "
                f"{len(self.mismatches)} mismatches, "
                f"{self.runtime_errors} runtime errors")


def copy_args(args: list) -> list:
    """A fresh copy of kernel arguments (ints and flat int lists), so a run
    that writes its array arguments leaves ``args`` as it was."""
    return [list(a) if isinstance(a, list) else a for a in args]


def _random_args(func, rng: random.Random, max_value: int = 255):
    """Random non-negative arguments matching a kernel signature."""
    args = []
    for param in func.params:
        if param.ctype.is_array or param.ctype.is_pointer:
            size = param.ctype.array_size
            size = size if size and size > 0 else 8
            args.append([rng.randrange(max_value + 1) for _ in range(size)])
        else:
            args.append(rng.randrange(max_value + 1))
    return args


def c_rtl_cosim(program: CProgram, function: str, vectors: int = 32,
                seed: int = 21,
                width_overrides: dict[str, int] | None = None) -> CosimReport:
    """Interpret the C kernel and simulate its generated RTL on shared vectors."""
    report = CosimReport()
    func = program.function(function)
    try:
        rtl: GeneratedRtl = generate_rtl(program, function, width_overrides)
    except RtlGenError as exc:
        report.skipped_reason = f"RTL generation: {exc}"
        return report
    try:
        runner = StimulusRunner(rtl.source, rtl.module_name)
    except Exception as exc:  # generated RTL failed to compile: real bug signal
        report.skipped_reason = f"generated RTL failed to elaborate: {exc}"
        return report

    rng = random.Random(seed)
    machine = Machine(program, mode="cpu")
    for _ in range(vectors):
        args = _random_args(rng=rng, func=func)
        try:
            expected = machine.call(function, *args).value
        except CRuntimeError:
            report.runtime_errors += 1
            continue
        stimulus: dict[str, int] = {}
        for param, arg in zip(func.params, args):
            if isinstance(arg, list):
                for i, value in enumerate(arg):
                    stimulus[f"{param.name}_{i}"] = value
            else:
                stimulus[param.name] = arg
        outs = runner.apply(stimulus)
        actual_logic = outs[rtl.output_name]
        actual = None if actual_logic.has_x else actual_logic.to_int()
        expected_wrapped = (expected or 0) & 0xFFFFFFFF
        report.vectors_run += 1
        if actual != expected_wrapped:
            report.mismatches.append(CosimMismatch(
                inputs={p.name: a for p, a in zip(func.params, args)},
                expected=expected_wrapped, actual=actual))
    return report


def cpu_fpga_cosim(program: CProgram, function: str,
                   inputs: list[list], width_overrides: dict[str, int],
                   pipeline_hazard: bool = False) -> CosimReport:
    """Diff CPU-mode vs FPGA-mode interpretation on explicit input vectors."""
    report = CosimReport()
    cpu = Machine(program, mode="cpu")
    fpga = Machine(program, mode="fpga", width_overrides=width_overrides,
                   pipeline_hazard=pipeline_hazard)
    func = program.function(function)
    for args in inputs:
        try:
            cpu_result = cpu.call(function, *copy_args(args))
        except CRuntimeError:
            report.runtime_errors += 1
            continue
        try:
            fpga_result = fpga.call(function, *copy_args(args))
        except CRuntimeError as exc:
            report.vectors_run += 1
            report.mismatches.append(CosimMismatch(
                inputs={p.name: a for p, a in zip(func.params, args)},
                expected=cpu_result.value, actual=None,
                note=f"FPGA-mode runtime error: {exc.kind}"))
            continue
        report.vectors_run += 1
        if cpu_result.value != fpga_result.value:
            report.mismatches.append(CosimMismatch(
                inputs={p.name: a for p, a in zip(func.params, args)},
                expected=cpu_result.value, actual=fpga_result.value))
    return report
