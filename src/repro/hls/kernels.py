"""Intelligent kernel extraction for accelerator generation (Section VI,
"Intelligent Kernel Extraction for Accelerator Generation").

The paper's proposal: an LLM-driven agent that (1) detects compute-intensive
kernels in a C program, (2) generates accelerators for them, (3) accounts
for CPU-accelerator data-transfer cost — because "inefficient
CPU-accelerator data transfer can negate the performance gains" — and
(4) iterates on PPA.

Implementation: kernel detection ranks functions by *measured* work (the
RISC-V core executes the program and attributes dynamic instructions per
function); the accelerator is the kernel's generated RTL (or its analytic
schedule when RTL is out of subset); speedup combines CPU cycles,
accelerator latency, and a bus-transfer model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .cast import CProgram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..riscv.core import CoreConfig, CoreStats
from .cparser import cparse
from .rtlgen import RtlGenError, generate_rtl
from .schedule import ScheduleReport, estimate_schedule

# Bus model: words/cycle and fixed handshake overhead per offload call.
_TRANSFER_WORDS_PER_CYCLE = 1.0
_OFFLOAD_OVERHEAD_CYCLES = 40
_CLOCK_NS = 10.0


@dataclass
class KernelProfile:
    function: str
    dynamic_instructions: int
    calls: int
    share: float                    # fraction of program instructions

    def __str__(self) -> str:
        return (f"{self.function}: {self.dynamic_instructions} insns "
                f"({self.share:.0%}) over {self.calls} call(s)")


def _profile(program: CProgram, entry: str, config: "CoreConfig | None"
             ) -> tuple[list[KernelProfile], "CoreStats"]:
    """Run the program once on the core; attribute work per function.

    Attribution uses the compiled label layout: every dynamic instruction is
    charged to the function whose code region its PC falls in.
    """
    # Imported lazily: repro.riscv depends on repro.hls for its compiler
    # frontend, so a module-level import here would be circular.
    from ..riscv.assembler import assemble
    from ..riscv.compiler import compile_program
    from ..riscv.core import Core

    assembled = assemble(compile_program(program, entry=entry))
    size = len(assembled)
    hits = [0] * size
    stats = Core(config).run(assembled, pc_hits=hits)

    # Function code regions from labels (function labels have no dot);
    # code before the first function belongs to _start.
    starts = sorted((index, name) for name, index in assembled.labels.items()
                    if not name.startswith(".") and name != "_start")
    owner = ["_start"] * size
    for (start, name), (end, _) in zip(starts, starts[1:] + [(size, "")]):
        owner[start:end] = [name] * (end - start)

    counts: dict[str, int] = {}
    calls: dict[str, int] = {}
    for pc, n in enumerate(hits):
        if not n:
            continue
        counts[owner[pc]] = counts.get(owner[pc], 0) + n
        instr = assembled.instructions[pc]
        if instr.mnemonic == "jal" and instr.rd == 1:
            target = owner[pc + instr.imm // 4]
            calls[target] = calls.get(target, 0) + n

    total = max(1, stats.instret)
    profiles = [
        KernelProfile(fn, n, calls.get(fn, 1), n / total)
        for fn, n in counts.items() if fn != "_start"
    ]
    # Stable sort: equal counts stay in code-layout order.
    profiles.sort(key=lambda p: -p.dynamic_instructions)
    return profiles, stats


def profile_kernels(source: str | CProgram, entry: str = "main",
                    config: "CoreConfig | None" = None) -> list[KernelProfile]:
    """Execute the program on the core and attribute work per function."""
    program = cparse(source) if isinstance(source, str) else source
    return _profile(program, entry, config)[0]


@dataclass
class AcceleratorPlan:
    function: str
    cpu_cycles_per_call: float
    accel_cycles_per_call: float
    transfer_cycles_per_call: float
    calls: int
    rtl_generated: bool
    schedule: ScheduleReport | None = None
    note: str = ""

    @property
    def offload_cycles_per_call(self) -> float:
        return (self.accel_cycles_per_call + self.transfer_cycles_per_call
                + _OFFLOAD_OVERHEAD_CYCLES)

    @property
    def speedup_per_call(self) -> float:
        if self.offload_cycles_per_call <= 0:
            return 0.0
        return self.cpu_cycles_per_call / self.offload_cycles_per_call

    @property
    def worthwhile(self) -> bool:
        return self.speedup_per_call > 1.0

    def summary(self) -> str:
        return (f"{self.function}: cpu={self.cpu_cycles_per_call:.0f}cy "
                f"accel={self.accel_cycles_per_call:.0f}cy "
                f"xfer={self.transfer_cycles_per_call:.0f}cy "
                f"-> speedup {self.speedup_per_call:.1f}x "
                f"({'offload' if self.worthwhile else 'keep on CPU'})")


def _transfer_words(program: CProgram, function: str) -> int:
    func = program.function(function)
    words = 0
    for param in func.params:
        if param.ctype.is_array:
            words += max(1, param.ctype.array_size or 8)
        else:
            words += 1
    if func.ret.base != "void":
        words += 1
    return words


def plan_accelerator(source: str | CProgram, function: str,
                     entry: str = "main",
                     clock_ns: float = _CLOCK_NS) -> AcceleratorPlan:
    """Size the accelerator opportunity for one kernel."""
    program = cparse(source) if isinstance(source, str) else source
    profiles, stats = _profile(program, entry, None)
    profile = next((p for p in profiles if p.function == function), None)
    if profile is None:
        raise KeyError(f"function '{function}' never executed from '{entry}'")
    return _plan(program, profile, stats, clock_ns)


def _plan(program: CProgram, profile: KernelProfile, stats: "CoreStats",
          clock_ns: float) -> AcceleratorPlan:
    function = profile.function
    # CPU cost: timing-model cycles attributed by the instruction share.
    cpu_cycles_total = stats.cycles * profile.share
    cpu_per_call = cpu_cycles_total / max(1, profile.calls)

    # Accelerator cost: RTL when in subset (combinational => ~1 cycle
    # plus pipeline depth proxy), otherwise the analytic schedule.
    schedule = estimate_schedule(program, function, clock_ns)
    rtl_ok = True
    note = ""
    try:
        generate_rtl(program, function)
        # Fully unrolled datapath: latency is its pipeline depth proxy.
        accel_cycles = max(1.0, schedule.latency_cycles / 8.0)
        note = "full-unroll datapath"
    except RtlGenError as exc:
        rtl_ok = False
        accel_cycles = float(schedule.latency_cycles)
        note = f"scheduled accelerator ({exc})"

    transfer = _transfer_words(program, function) / _TRANSFER_WORDS_PER_CYCLE
    return AcceleratorPlan(function, cpu_per_call, accel_cycles, transfer,
                           profile.calls, rtl_ok, schedule, note)


@dataclass
class ExtractionReport:
    profiles: list[KernelProfile] = field(default_factory=list)
    plans: list[AcceleratorPlan] = field(default_factory=list)

    @property
    def recommended(self) -> list[AcceleratorPlan]:
        return [p for p in self.plans if p.worthwhile]

    def summary(self) -> str:
        lines = ["kernel profile:"]
        lines.extend(f"  {p}" for p in self.profiles[:5])
        lines.append("accelerator plans:")
        lines.extend(f"  {p.summary()}" for p in self.plans)
        return "\n".join(lines)


def extract_kernels(source: str, entry: str = "main",
                    min_share: float = 0.10) -> ExtractionReport:
    """The full closed loop: profile → select hot kernels → plan
    accelerators with transfer-cost awareness.  The program runs once."""
    program = cparse(source)
    profiles, stats = _profile(program, entry, None)
    report = ExtractionReport(profiles=profiles)
    for profile in profiles:
        if profile.share < min_share or profile.function == entry:
            continue
        try:
            report.plans.append(_plan(program, profile, stats, _CLOCK_NS))
        except KeyError:
            continue
    return report
