"""Two-pass assembler for the RV32IM subset.

Accepts the textual form the compiler emits (labels, ABI register names,
``imm(reg)`` addressing, a few pseudo-instructions) and produces a resolved
:class:`Program` the core executes.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType

from .isa import Instruction, SPECS, parse_register


class AsmError(Exception):
    def __init__(self, message: str, line: int = 0):
        self.line = line
        super().__init__(f"[ASM] {message} (line {line})")


@dataclass(frozen=True)
class Program:
    """A resolved program; immutable, so ``source`` always describes it."""
    instructions: Sequence[Instruction] = ()
    labels: Mapping[str, int] = field(default_factory=dict)
    # The text :func:`assemble` built this program from; the rig's run memo
    # keys on it.  Not an __init__ argument, so a hand-built program, or one
    # made with dataclasses.replace, has none.
    source: str = field(default="", init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "instructions", tuple(self.instructions))
        object.__setattr__(self, "labels", MappingProxyType(dict(self.labels)))

    def __reduce__(self):
        return _assembled, (self.instructions, dict(self.labels), self.source)

    def __len__(self) -> int:
        return len(self.instructions)

    def disassemble(self) -> str:
        by_index: dict[int, list[str]] = {}
        for label, index in self.labels.items():
            by_index.setdefault(index, []).append(label)
        lines: list[str] = []
        for i, instr in enumerate(self.instructions):
            for label in by_index.get(i, ()):
                lines.append(f"{label}:")
            lines.append(f"    {instr}")
        return "\n".join(lines)


_PSEUDO_DOC = """Supported pseudo-instructions:
  li rd, imm      -> lui+addi / addi
  mv rd, rs       -> addi rd, rs, 0
  nop             -> addi x0, x0, 0
  not rd, rs      -> xori rd, rs, -1
  neg rd, rs      -> sub rd, x0, rs
  j label         -> jal x0, label
  ret             -> jalr x0, ra, 0
  call label      -> jal ra, label
  beqz/bnez rs, label
  halt            -> ebreak
"""


def _parse_imm(text: str, line: int) -> int:
    text = text.strip()
    try:
        return int(text, 0)
    except ValueError:
        raise AsmError(f"bad immediate '{text}'", line) from None


def _split_mem(operand: str, line: int) -> tuple[int, int]:
    """Parse 'imm(reg)' into (imm, reg)."""
    operand = operand.strip()
    if "(" not in operand or not operand.endswith(")"):
        raise AsmError(f"bad memory operand '{operand}'", line)
    imm_text, reg_text = operand[:-1].split("(", 1)
    imm = _parse_imm(imm_text or "0", line)
    return imm, parse_register(reg_text)


class Assembler:
    def __init__(self, source: str):
        self.source = source

    def assemble(self) -> Program:
        instructions: list[Instruction] = []
        labels: dict[str, int] = {}
        for lineno, raw in enumerate(self.source.splitlines(), start=1):
            line = raw.split("#")[0].split("//")[0].strip()
            if not line:
                continue
            while ":" in line:
                label, _, rest = line.partition(":")
                label = label.strip()
                if not label.replace("_", "").replace(".", "").isalnum():
                    raise AsmError(f"bad label '{label}'", lineno)
                labels[label] = len(instructions)
                line = rest.strip()
            if not line:
                continue
            instructions.extend(self._parse_line(line, lineno))

        # Resolve labels to instruction-index offsets.
        resolved: list[Instruction] = []
        for index, instr in enumerate(instructions):
            if instr.label is not None:
                if instr.label not in labels:
                    raise AsmError(f"undefined label '{instr.label}'")
                target = labels[instr.label]
                # Branch/jump immediates are *instruction index deltas* × 4.
                offset = (target - index) * 4
                resolved.append(dataclasses.replace(instr, imm=offset,
                                                    label=instr.label))
            else:
                resolved.append(instr)
        return _assembled(resolved, labels, self.source)

    def _parse_line(self, line: str, lineno: int) -> list[Instruction]:
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        operands = [o.strip() for o in parts[1].split(",")] if len(parts) > 1 \
            else []

        # Pseudo-instructions.
        if mnemonic == "nop":
            return [Instruction("addi", rd=0, rs1=0, imm=0)]
        if mnemonic == "halt":
            return [Instruction("ebreak")]
        if mnemonic == "li":
            rd = parse_register(operands[0])
            value = _parse_imm(operands[1], lineno)
            if -2048 <= value < 2048:
                return [Instruction("addi", rd=rd, rs1=0, imm=value)]
            upper = (value + 0x800) >> 12
            lower = value - (upper << 12)
            return [Instruction("lui", rd=rd, imm=upper & 0xFFFFF),
                    Instruction("addi", rd=rd, rs1=rd, imm=lower)]
        if mnemonic == "mv":
            return [Instruction("addi", rd=parse_register(operands[0]),
                                rs1=parse_register(operands[1]), imm=0)]
        if mnemonic == "not":
            return [Instruction("xori", rd=parse_register(operands[0]),
                                rs1=parse_register(operands[1]), imm=-1)]
        if mnemonic == "neg":
            return [Instruction("sub", rd=parse_register(operands[0]),
                                rs1=0, rs2=parse_register(operands[1]))]
        if mnemonic == "j":
            return [Instruction("jal", rd=0, label=operands[0])]
        if mnemonic == "call":
            return [Instruction("jal", rd=1, label=operands[0])]
        if mnemonic == "ret":
            return [Instruction("jalr", rd=0, rs1=1, imm=0)]
        if mnemonic in ("beqz", "bnez"):
            real = "beq" if mnemonic == "beqz" else "bne"
            return [Instruction(real, rs1=parse_register(operands[0]),
                                rs2=0, label=operands[1])]
        if mnemonic in ("seqz",):
            return [Instruction("sltiu", rd=parse_register(operands[0]),
                                rs1=parse_register(operands[1]), imm=1)]
        if mnemonic in ("snez",):
            return [Instruction("sltu", rd=parse_register(operands[0]),
                                rs1=0, rs2=parse_register(operands[1]))]

        spec = SPECS.get(mnemonic)
        if spec is None:
            raise AsmError(f"unknown mnemonic '{mnemonic}'", lineno)
        fmt = spec.fmt
        if fmt == "R":
            return [Instruction(mnemonic, rd=parse_register(operands[0]),
                                rs1=parse_register(operands[1]),
                                rs2=parse_register(operands[2]))]
        if fmt == "I":
            if spec.opcode == 0b0000011:  # loads: rd, imm(rs1)
                imm, rs1 = _split_mem(operands[1], lineno)
                return [Instruction(mnemonic, rd=parse_register(operands[0]),
                                    rs1=rs1, imm=imm)]
            if mnemonic == "jalr":
                if len(operands) == 3:
                    return [Instruction("jalr", rd=parse_register(operands[0]),
                                        rs1=parse_register(operands[1]),
                                        imm=_parse_imm(operands[2], lineno))]
                imm, rs1 = _split_mem(operands[1], lineno)
                return [Instruction("jalr", rd=parse_register(operands[0]),
                                    rs1=rs1, imm=imm)]
            if mnemonic == "ebreak":
                return [Instruction("ebreak")]
            return [Instruction(mnemonic, rd=parse_register(operands[0]),
                                rs1=parse_register(operands[1]),
                                imm=_parse_imm(operands[2], lineno))]
        if fmt == "S":
            imm, rs1 = _split_mem(operands[1], lineno)
            return [Instruction(mnemonic, rs2=parse_register(operands[0]),
                                rs1=rs1, imm=imm)]
        if fmt == "B":
            target = operands[2]
            if target.lstrip("-").isdigit():
                return [Instruction(mnemonic, rs1=parse_register(operands[0]),
                                    rs2=parse_register(operands[1]),
                                    imm=_parse_imm(target, lineno))]
            return [Instruction(mnemonic, rs1=parse_register(operands[0]),
                                rs2=parse_register(operands[1]), label=target)]
        if fmt == "U":
            return [Instruction(mnemonic, rd=parse_register(operands[0]),
                                imm=_parse_imm(operands[1], lineno))]
        if fmt == "J":
            target = operands[1]
            if target.lstrip("-").isdigit():
                return [Instruction(mnemonic, rd=parse_register(operands[0]),
                                    imm=_parse_imm(target, lineno))]
            return [Instruction(mnemonic, rd=parse_register(operands[0]),
                                label=target)]
        raise AsmError(f"cannot assemble format {fmt}", lineno)


def _assembled(instructions: Sequence[Instruction], labels: dict[str, int],
               source: str) -> Program:
    """A :class:`Program` that records the text it was assembled from."""
    program = Program(instructions, labels)
    object.__setattr__(program, "source", source)
    return program


def assemble(source: str) -> Program:
    """Assemble RV32IM text into a resolved :class:`Program`."""
    return Assembler(source).assemble()
