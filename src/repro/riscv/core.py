"""One-pass out-of-order superscalar core model (the BOOM substitute).

:meth:`Core.run` decodes each static instruction once into a flat tuple
and then makes one pass over the dynamic instruction stream.  Each step
executes the instruction on the RV32IM state and, in the same iteration,
times it through a scoreboard with a fetch / dispatch width, a reorder
buffer, per-class functional units (pipelined ALUs and multiplier,
unpipelined divider, one load/store unit), a direct-mapped data cache, and
a static backward-taken branch predictor with a mispredict penalty.

Memory is O(static program + touched data): no state grows with the
dynamic instruction count.  Three invariants keep the timing state O(1):

* back-pressure reads only the retire time ``rob_size`` instructions
  back, so a ``rob_size`` ring of retire times stands in for the ROB;
* retire times never decrease, so only the trailing run of equal retire
  times can collide with a new retire: ``retire_width`` needs its length;
* a toggle count is a whole number of bits out of 32, so per-unit toggles
  add up exactly as integers and are divided by 32 at the end.

Registers and memory hold unsigned 32-bit words; toggles XOR two results
mod 2**32, so they read the same as for signed values.  The outputs feed
the activity-based power model in :mod:`repro.riscv.power`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from ..obs import get_tracer
from .assembler import Program
from .isa import (Instruction, UNIT_ALU, UNIT_BRANCH, UNIT_DIV, UNIT_LSU,
                  UNIT_MUL)

_M32 = 0xFFFFFFFF
_SIGN = 0x80000000


class ExecutionFault(Exception):
    def __init__(self, kind: str, message: str):
        self.kind = kind
        super().__init__(f"[CPU:{kind}] {message}")


@dataclass(frozen=True)
class CoreConfig:
    """BOOM-like microarchitecture parameters."""

    fetch_width: int = 2
    retire_width: int = 2
    rob_size: int = 32
    alu_units: int = 2
    mul_units: int = 1
    div_units: int = 1
    lsu_units: int = 1
    branch_units: int = 1
    mispredict_penalty: int = 7
    cache_hit_latency: int = 2
    cache_miss_latency: int = 20
    cache_lines: int = 64          # direct-mapped, 16-byte lines
    max_instructions: int = 2_000_000


@dataclass
class CoreStats:
    instret: int = 0
    cycles: int = 0
    unit_ops: dict[str, int] = field(default_factory=dict)
    unit_activity: dict[str, float] = field(default_factory=dict)
    branch_count: int = 0
    mispredicts: int = 0
    mem_reads: int = 0
    mem_writes: int = 0
    cache_misses: int = 0
    halted: bool = False
    return_value: int = 0

    @property
    def ipc(self) -> float:
        return self.instret / self.cycles if self.cycles else 0.0

    @property
    def mispredict_rate(self) -> float:
        return self.mispredicts / self.branch_count if self.branch_count else 0.0

    def unit_rate(self, unit: str) -> float:
        if not self.cycles:
            return 0.0
        return self.unit_ops.get(unit, 0) / self.cycles

    def summary(self) -> str:
        return (f"{self.instret} insns in {self.cycles} cycles "
                f"(IPC={self.ipc:.2f}), mispredict={self.mispredict_rate:.1%}, "
                f"cache_misses={self.cache_misses}")


def _signed(v: int) -> int:
    return (v ^ _SIGN) - _SIGN


def _quot(a: int, b: int) -> int:
    """Signed quotient of two unsigned words, truncated toward zero."""
    q = abs(_signed(a)) // abs(_signed(b))
    return -q if (a ^ b) & _SIGN else q


# Every operation but the frequent ones below, as f(a, b) on unsigned
# words; b is rs2's value, or for an immediate form the immediate mod 2**32.
_FNS = {
    "sub": lambda a, b: (a - b) & _M32,
    "and": operator.and_, "andi": operator.and_,
    "or": operator.or_, "ori": operator.or_, "xori": operator.xor,
    "slt": lambda a, b: 1 if (a ^ _SIGN) < (b ^ _SIGN) else 0,
    "sltu": lambda a, b: 1 if a < b else 0,
    "sll": lambda a, b: (a << (b & 31)) & _M32,
    "srl": lambda a, b: a >> (b & 31),
    "sra": lambda a, b: (_signed(a) >> (b & 31)) & _M32,
    "mulh": lambda a, b: ((_signed(a) * _signed(b)) >> 32) & _M32,
    "mulhsu": lambda a, b: ((_signed(a) * b) >> 32) & _M32,
    "mulhu": lambda a, b: (a * b) >> 32,
    "div": lambda a, b: _quot(a, b) & _M32 if b else _M32,
    "divu": lambda a, b: a // b if b else _M32,
    "rem": lambda a, b: (_signed(a) - _quot(a, b) * _signed(b)) & _M32
    if b else a,
    "remu": lambda a, b: a % b if b else a,
}
_FNS.update({imm_form: _FNS[reg_form] for imm_form, reg_form in (
    ("slti", "slt"), ("sltiu", "sltu"), ("slli", "sll"), ("srli", "srl"),
    ("srai", "sra"))})
_CONDS = {"beq": operator.eq, "bne": operator.ne, "bltu": operator.lt,
          "bgeu": operator.ge, "blt": lambda a, b: (a ^ _SIGN) < (b ^ _SIGN),
          "bge": lambda a, b: (a ^ _SIGN) >= (b ^ _SIGN)}

# Operation ids, most frequent in compiled SLT snippets first: the execute
# step tests them in this order.
(_LW, _ADD, _ADDI, _SW, _MUL, _XOR, _FN, _FNI, _LUI, _BRANCH, _JAL, _JALR,
 _LOADB, _STOREB, _EBREAK) = range(15)
_OPS = {"lw": _LW, "add": _ADD, "addi": _ADDI, "sw": _SW, "mul": _MUL,
        "xor": _XOR, "lui": _LUI, "auipc": _LUI, "jal": _JAL, "jalr": _JALR,
        "lb": _LOADB, "lbu": _LOADB, "lh": _LOADB, "lhu": _LOADB,
        "sb": _STOREB, "sh": _STOREB, "ebreak": _EBREAK}
_WIDTHS, _SIGNS = {"b": 0xFF, "h": 0xFFFF}, {"lb": 0x80, "lh": 0x8000}
_UNITS = (UNIT_ALU, UNIT_MUL, UNIT_DIV, UNIT_LSU, UNIT_BRANCH)


def _decode(instr: Instruction, pc: int) -> tuple:
    """One static instruction as ``(op, rd, rs1, rs2, imm, unit, latency,
    occupancy)``, with ``imm`` pre-shaped for its operation: a constant
    result, a branch target index, or a function with its operand."""
    m, spec = instr.mnemonic, instr.spec
    rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm
    op = _OPS.get(m)
    if m in _CONDS:
        op, rd, imm = _BRANCH, 0, (_CONDS[m], pc + imm // 4)
    elif m in _FNS:
        op = _FNI if spec.fmt == "I" else _FN
        imm = (_FNS[m], imm & _M32)
    elif op == _LUI:
        imm = ((pc * 4 if m == "auipc" else 0) + (imm << 12)) & _M32
    elif op == _JAL:
        imm = pc + imm // 4
    elif op == _LOADB:
        imm = (_WIDTHS[m[1]], _SIGNS.get(m, 0), imm)
    elif op == _STOREB:
        imm = (_WIDTHS[m[1]], imm)
    elif op == _EBREAK:
        rs1 = rs2 = 0
    if op in (_SW, _STOREB):
        rd = 0
    occupancy = spec.latency if spec.unit == UNIT_DIV else 1
    return (op, rd, rs1, rs2, imm, _UNITS.index(spec.unit), spec.latency,
            occupancy)


class Core:
    """Functional + timing simulation of one program run."""

    def __init__(self, config: CoreConfig | None = None):
        self.config = config or CoreConfig()

    def run(self, program: Program,
            pc_hits: list[int] | None = None) -> CoreStats:
        """Execute a program and return combined functional+timing stats.

        ``pc_hits``, when given, must have one zero per static instruction;
        each executed instruction adds one at its index (kernel profiling).
        """
        with get_tracer().span("riscv.core.run") as sp:
            stats = self._run(program, pc_hits)
            sp.set(instret=stats.instret, cycles=stats.cycles,
                   ipc=round(stats.ipc, 4))
        return stats

    def _run(self, program: Program, pc_hits: list[int] | None) -> CoreStats:
        cfg = self.config
        code = [_decode(instr, pc)
                for pc, instr in enumerate(program.instructions)]
        ncode = len(code)
        limit = cfg.max_instructions
        regs = [0] * 32
        regs[2] = 0x10000                # sp
        memory: dict[int, int] = {}

        fetch_width, retire_width = cfg.fetch_width, cfg.retire_width
        penalty, lines = cfg.mispredict_penalty, cfg.cache_lines
        hit_lat, miss_lat = cfg.cache_hit_latency, cfg.cache_miss_latency
        reg_ready = [0] * 32
        unit_free = [[0] * n for n in (cfg.alu_units, cfg.mul_units,
                                       cfg.div_units, cfg.lsu_units,
                                       cfg.branch_units)]
        pooled = [len(frees) > 1 for frees in unit_free]
        rob_size = cfg.rob_size
        rob = [0] * rob_size             # retire times of the in-flight window
        rob_i = 0
        fetch = fetched = 0              # fetch cycle, slots used in it
        retire = run = 0                 # last retire time, its trailing run
        cache_tags = [-1] * lines
        misses = reads = writes = mispredicts = 0
        last, toggles, ops = [0] * 5, [0] * 5, [0] * 5   # per unit
        first_use: list[int] = []
        halted = False

        pc = program.labels.get("_start", 0)
        n = 0
        while 0 <= pc < ncode:
            n += 1
            if n > limit:
                raise ExecutionFault(
                    "timeout", f"exceeded {limit} dynamic instructions")
            if pc_hits is not None:
                pc_hits[pc] += 1
            op, rd, rs1, rs2, imm, u, lat, occ = code[pc]

            # Dispatch: fetch width, then ROB back-pressure from the entry
            # rob_size instructions back (0 while the ROB is filling).
            if fetched >= fetch_width:
                fetch, fetched = fetch + 1, 0
            t = rob[rob_i]
            if t > fetch:
                fetch, fetched = t, 0
            fetched += 1
            # Issue: operands ready, then the earliest-free unit instance
            # (reg_ready[0] stays 0, so x0 never delays).
            ready = fetch
            t = reg_ready[rs1]
            if t > ready:
                ready = t
            t = reg_ready[rs2]
            if t > ready:
                ready = t
            frees = unit_free[u]
            if pooled[u]:
                t = min(frees)
                slot = frees.index(t)
            else:
                t, slot = frees[0], 0
            issue = ready if ready > t else t
            frees[slot] = issue + occ

            # Execute.
            a = regs[rs1]
            npc = pc + 1
            if op == _LW or op == _LOADB:
                if op == _LW:
                    addr = (a + imm) & _M32
                    result = memory.get(addr >> 2, 0)
                else:
                    width, sign, offset = imm
                    addr = (a + offset) & _M32
                    # From the signed word, as a halfword at byte 3 reads
                    # the sign bits above it.
                    result = (_signed(memory.get(addr >> 2, 0))
                              >> (addr & 3) * 8) & width
                    if result & sign:
                        result |= _M32 ^ width
                reads += 1
                tag = addr >> 4
                if cache_tags[tag % lines] == tag:
                    lat = hit_lat
                else:
                    lat = miss_lat
                    cache_tags[tag % lines] = tag
                    misses += 1
            elif op == _ADD:
                result = (a + regs[rs2]) & _M32
            elif op == _ADDI:
                result = (a + imm) & _M32
            elif op == _SW or op == _STOREB:
                if op == _SW:
                    addr = (a + imm) & _M32
                    memory[addr >> 2] = regs[rs2]
                else:
                    width, offset = imm
                    addr = (a + offset) & _M32
                    shift = (addr & 3) * 8
                    word = memory.get(addr >> 2, 0) & ~(width << shift)
                    word |= (regs[rs2] & width) << shift
                    memory[addr >> 2] = word & _M32
                result = 0
                writes += 1
                tag = addr >> 4
                if cache_tags[tag % lines] != tag:
                    cache_tags[tag % lines] = tag
                    misses += 1
                lat = 1                  # stores complete at commit
            elif op == _MUL:
                result = (a * regs[rs2]) & _M32
            elif op == _XOR:
                result = a ^ regs[rs2]
            elif op == _FN:
                result = imm[0](a, regs[rs2])
            elif op == _FNI:
                result = imm[0](a, imm[1])
            elif op == _LUI:
                result = imm
            elif op == _BRANCH or op == _JAL or op == _JALR:
                if op == _BRANCH:
                    result = 0
                    cond, target = imm
                    taken = cond(a, regs[rs2])
                    if taken:
                        npc = target
                    # Static prediction: backward taken, forward not taken.
                    mispredict = taken != (target < pc)
                else:
                    result = npc * 4
                    npc = imm if op == _JAL else ((a + imm) & _M32) >> 2
                    mispredict = op == _JALR
                if mispredict:
                    mispredicts += 1
                    t = issue + lat + penalty
                    if t > fetch:
                        fetch = t
                    fetched = 0
            else:                        # ebreak: halt after timing it
                result = 0
                halted = True
                npc = ncode

            complete = issue + lat
            if rd:
                regs[rd] = result
                reg_ready[rd] = complete
            # In-order retirement, at most retire_width per cycle.
            if complete > retire:
                retire, run = complete, 1
            elif run >= retire_width:
                retire, run = retire + 1, 1
            else:
                run += 1
            rob[rob_i] = retire
            rob_i += 1
            if rob_i == rob_size:
                rob_i = 0
            # Operand toggle activity (for the power model).
            toggles[u] += (last[u] ^ result).bit_count()
            last[u] = result
            if not ops[u]:
                first_use.append(u)
            ops[u] += 1
            pc = npc

        if not halted:
            raise ExecutionFault("pcrange", f"program counter left code at {pc}")
        return CoreStats(
            instret=n, cycles=retire + 1,
            unit_ops={_UNITS[u]: ops[u] for u in first_use},
            unit_activity={_UNITS[u]: toggles[u] / 32 / ops[u]
                           for u in first_use},
            branch_count=ops[_UNITS.index(UNIT_BRANCH)],
            mispredicts=mispredicts, mem_reads=reads, mem_writes=writes,
            cache_misses=misses, halted=True, return_value=_signed(regs[10]))


def run_program(program: Program, config: CoreConfig | None = None) -> CoreStats:
    return Core(config).run(program)
