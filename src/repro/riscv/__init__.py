"""``repro.riscv`` — RV32IM substrate: ISA, assembler, mini-C compiler,
out-of-order core timing model, and the FPGA power-measurement simulator.

Substitutes for the BOOM-on-FPGA rig of the SLT case study (Section V).
"""

from .assembler import AsmError, Assembler, Program, assemble
from .compiler import CompileError, compile_program
from .core import Core, CoreConfig, CoreStats, ExecutionFault, run_program
from .fpga import FpgaPowerMeter, PowerMeasurement
from .isa import (ABI_NAMES, Instruction, InstrSpec, SPECS, UNIT_ALU,
                  UNIT_BRANCH, UNIT_DIV, UNIT_LSU, UNIT_MUL, decode, encode,
                  parse_register)
from .power import (PowerBreakdown, STATIC_POWER_W, estimate_power, power_of)

__all__ = [
    "ABI_NAMES", "AsmError", "Assembler", "CompileError", "Core",
    "CoreConfig", "CoreStats", "ExecutionFault", "FpgaPowerMeter",
    "InstrSpec", "Instruction", "PowerBreakdown", "PowerMeasurement",
    "Program", "SPECS", "STATIC_POWER_W", "UNIT_ALU",
    "UNIT_BRANCH", "UNIT_DIV", "UNIT_LSU", "UNIT_MUL", "assemble",
    "compile_program", "decode", "encode", "estimate_power",
    "parse_register", "power_of", "run_program",
]
