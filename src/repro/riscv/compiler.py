"""Mini-C to RV32IM compiler.

Compiles the same mini-C subset the HLS frontend parses down to the
assembler's textual form, so the SLT loop can score LLM- and GP-generated C
snippets on the out-of-order core.  Classic single-pass code generation:
frame-pointer-relative locals, an expression register stack (t0..t6,
s2..s11), a0-a5 argument registers, result in a0.
"""

from __future__ import annotations

from ..hls.cast import (CAssign, CBinary, CBlock, CBreak, CCall, CCast,
                        CContinue, CDecl, CExpr, CExprStmt, CFor, CFunction,
                        CIf, CIndex, CNum, CPragmaStmt, CProgram, CReturn,
                        CSizeof, CStmt, CTernary, CUnary, CVar, CWhile,
                        walk_stmts)
from ..hls.cparser import cparse


class CompileError(Exception):
    def __init__(self, message: str, line: int = 0):
        self.line = line
        super().__init__(f"[CC] {message} (line {line})")


_TEMP_REGS = ["t0", "t1", "t2", "t3", "t4", "t5", "t6",
              "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9"]
_ARG_REGS = ["a0", "a1", "a2", "a3", "a4", "a5"]


class _RegStack:
    def __init__(self) -> None:
        self.depth = 0

    def push(self) -> str:
        if self.depth >= len(_TEMP_REGS):
            raise CompileError("expression too deeply nested for the register "
                               "allocator")
        reg = _TEMP_REGS[self.depth]
        self.depth += 1
        return reg

    def pop(self) -> str:
        self.depth -= 1
        return _TEMP_REGS[self.depth]

    @property
    def top(self) -> str:
        return _TEMP_REGS[self.depth - 1]


class _FunctionCompiler:
    def __init__(self, program: CProgram, func: CFunction, emit,
                 label_counter: list[int]):
        self.program = program
        self.func = func
        self.emit = emit
        self.label_counter = label_counter
        self.offsets: dict[str, int] = {}     # name -> fp-relative offset
        self.array_sizes: dict[str, int] = {}
        # The first 8 bytes below the frame pointer hold saved ra and s0;
        # locals start below them.
        self.frame_size = 8
        self.regs = _RegStack()
        self.loop_stack: list[tuple[str, str]] = []   # (continue, break)

    def _label(self, hint: str) -> str:
        self.label_counter[0] += 1
        return f".L{hint}_{self.label_counter[0]}"

    def _alloc(self, name: str, words: int = 1, line: int = 0) -> int:
        if name in self.offsets:
            return self.offsets[name]
        self.frame_size += 4 * words
        self.offsets[name] = -self.frame_size
        return self.offsets[name]

    # -- layout pre-pass ---------------------------------------------------------

    def _layout(self, stmt: CStmt) -> None:
        for decl in walk_stmts(stmt):
            if type(decl) is not CDecl:
                continue
            if decl.ctype.is_array:
                size = decl.ctype.array_size or 0
                if size <= 0:
                    raise CompileError(f"array '{decl.name}' needs a constant "
                                       f"size", decl.line)
                self._alloc(decl.name, size, decl.line)
                self.array_sizes[decl.name] = size
            else:
                self._alloc(decl.name, 1, decl.line)

    # -- compilation ----------------------------------------------------------------

    def compile(self) -> None:
        func = self.func
        if len(func.params) > len(_ARG_REGS):
            raise CompileError(f"'{func.name}' has more than "
                               f"{len(_ARG_REGS)} parameters", func.line)
        for param in func.params:
            if param.ctype.is_array or param.ctype.is_pointer:
                # Arrays are passed as base addresses.
                self._alloc(param.name, 1, func.line)
            else:
                self._alloc(param.name, 1, func.line)
        self._layout(func.body)
        # Reserve spill slots for temporaries live across calls inside
        # subexpressions (e.g. `s += f(x)`).
        self.spill_slots = [self._alloc(f"__spill{i}")
                            for i in range(len(_TEMP_REGS))]
        frame = (self.frame_size + 15) & ~15   # 16-byte alignment

        self.emit(f"{func.name}:")
        self.emit(f"    addi sp, sp, -{frame}")
        self.emit(f"    sw ra, {frame - 4}(sp)")
        self.emit(f"    sw s0, {frame - 8}(sp)")
        self.emit(f"    addi s0, sp, {frame}")
        for i, param in enumerate(func.params):
            self.emit(f"    sw {_ARG_REGS[i]}, {self.offsets[param.name]}(s0)")
        self.return_label = self._label(f"ret_{func.name}")
        self.frame_total = frame
        self._stmt(func.body)
        # Fallthrough return (value 0).
        self.emit("    li a0, 0")
        self.emit(f"{self.return_label}:")
        self.emit(f"    lw ra, {frame - 4}(sp)")
        self.emit(f"    lw s0, {frame - 8}(sp)")
        self.emit(f"    addi sp, sp, {frame}")
        self.emit("    ret")

    # -- statements --------------------------------------------------------------------

    def _stmt(self, stmt: CStmt) -> None:
        if isinstance(stmt, CBlock):
            for s in stmt.stmts:
                self._stmt(s)
        elif isinstance(stmt, CPragmaStmt):
            pass
        elif isinstance(stmt, CDecl):
            if stmt.ctype.is_array:
                return  # storage already laid out; no init supported
            if stmt.init is not None:
                reg = self._expr(stmt.init)
                self.emit(f"    sw {reg}, {self.offsets[stmt.name]}(s0)")
                self.regs.pop()
        elif isinstance(stmt, CExprStmt):
            reg_count = self.regs.depth
            self._expr_for_effect(stmt.expr)
            assert self.regs.depth == reg_count
        elif isinstance(stmt, CReturn):
            if stmt.value is not None:
                reg = self._expr(stmt.value)
                self.emit(f"    mv a0, {reg}")
                self.regs.pop()
            else:
                self.emit("    li a0, 0")
            self.emit(f"    j {self.return_label}")
        elif isinstance(stmt, CIf):
            self._if(stmt)
        elif isinstance(stmt, CFor):
            self._for(stmt)
        elif isinstance(stmt, CWhile):
            self._while(stmt)
        elif isinstance(stmt, CBreak):
            if not self.loop_stack:
                raise CompileError("break outside loop", stmt.line)
            self.emit(f"    j {self.loop_stack[-1][1]}")
        elif isinstance(stmt, CContinue):
            if not self.loop_stack:
                raise CompileError("continue outside loop", stmt.line)
            self.emit(f"    j {self.loop_stack[-1][0]}")
        else:
            raise CompileError(f"cannot compile {type(stmt).__name__}")

    def _if(self, stmt: CIf) -> None:
        else_label = self._label("else")
        end_label = self._label("endif")
        reg = self._expr(stmt.cond)
        self.emit(f"    beqz {reg}, {else_label}")
        self.regs.pop()
        self._stmt(stmt.then)
        if stmt.other is not None:
            self.emit(f"    j {end_label}")
            self.emit(f"{else_label}:")
            self._stmt(stmt.other)
            self.emit(f"{end_label}:")
        else:
            self.emit(f"{else_label}:")

    def _for(self, stmt: CFor) -> None:
        if stmt.init is not None:
            self._stmt(stmt.init)
        head = self._label("for")
        cont = self._label("forstep")
        done = self._label("forend")
        self.emit(f"{head}:")
        if stmt.cond is not None:
            reg = self._expr(stmt.cond)
            self.emit(f"    beqz {reg}, {done}")
            self.regs.pop()
        self.loop_stack.append((cont, done))
        self._stmt(stmt.body)
        self.loop_stack.pop()
        self.emit(f"{cont}:")
        if stmt.step is not None:
            self._expr_for_effect(stmt.step)
        self.emit(f"    j {head}")
        self.emit(f"{done}:")

    def _while(self, stmt: CWhile) -> None:
        head = self._label("while")
        done = self._label("wend")
        if stmt.do_while:
            body_label = self._label("do")
            self.emit(f"{body_label}:")
            self.loop_stack.append((head, done))
            self._stmt(stmt.body)
            self.loop_stack.pop()
            self.emit(f"{head}:")
            reg = self._expr(stmt.cond)
            self.emit(f"    bnez {reg}, {body_label}")
            self.regs.pop()
            self.emit(f"{done}:")
            return
        self.emit(f"{head}:")
        reg = self._expr(stmt.cond)
        self.emit(f"    beqz {reg}, {done}")
        self.regs.pop()
        self.loop_stack.append((head, done))
        self._stmt(stmt.body)
        self.loop_stack.pop()
        self.emit(f"    j {head}")
        self.emit(f"{done}:")

    # -- expressions ------------------------------------------------------------------------

    def _expr_for_effect(self, expr: CExpr) -> None:
        reg = self._expr(expr)
        self.regs.pop()
        _ = reg

    def _expr(self, expr: CExpr) -> str:
        """Compile an expression; result lands in a freshly pushed register."""
        if isinstance(expr, CNum):
            reg = self.regs.push()
            self.emit(f"    li {reg}, {expr.value}")
            return reg
        if isinstance(expr, CVar):
            if expr.name not in self.offsets:
                raise CompileError(f"undefined variable '{expr.name}'",
                                   expr.line)
            reg = self.regs.push()
            if expr.name in self.array_sizes:
                self.emit(f"    addi {reg}, s0, {self.offsets[expr.name]}")
            else:
                self.emit(f"    lw {reg}, {self.offsets[expr.name]}(s0)")
            return reg
        if isinstance(expr, CIndex):
            addr = self._address_of(expr)
            self.emit(f"    lw {addr}, 0({addr})")
            return addr
        if isinstance(expr, CAssign):
            return self._assign(expr)
        if isinstance(expr, CUnary):
            return self._unary(expr)
        if isinstance(expr, CBinary):
            return self._binary(expr)
        if isinstance(expr, CTernary):
            return self._ternary(expr)
        if isinstance(expr, CCall):
            return self._call(expr)
        if isinstance(expr, CCast):
            return self._expr(expr.operand)
        if isinstance(expr, CSizeof):
            reg = self.regs.push()
            self.emit(f"    li {reg}, 4")
            return reg
        raise CompileError(f"cannot compile {type(expr).__name__}")

    def _address_of(self, expr: CIndex) -> str:
        if not isinstance(expr.base, CVar):
            raise CompileError("only direct array indexing is supported")
        name = expr.base.name
        if name not in self.offsets:
            raise CompileError(f"undefined array '{name}'")
        idx = self._expr(expr.index)
        self.emit(f"    slli {idx}, {idx}, 2")
        if name in self.array_sizes:
            self.emit(f"    addi {idx}, {idx}, {self.offsets[name]}")
            self.emit(f"    add {idx}, {idx}, s0")
        else:
            # Pointer/array parameter: base address stored in the slot.
            base = self.regs.push()
            self.emit(f"    lw {base}, {self.offsets[name]}(s0)")
            self.emit(f"    add {idx}, {idx}, {base}")
            self.regs.pop()
        return idx

    def _assign(self, expr: CAssign) -> str:
        if isinstance(expr.target, CVar):
            name = expr.target.name
            if name not in self.offsets:
                raise CompileError(f"undefined variable '{name}'", expr.line)
            if expr.op == "=":
                value = self._expr(expr.value)
            else:
                value = self._expr(CBinary(expr.op[:-1], expr.target,
                                           expr.value))
            self.emit(f"    sw {value}, {self.offsets[name]}(s0)")
            return value
        if isinstance(expr.target, CIndex):
            if expr.op == "=":
                value = self._expr(expr.value)
            else:
                value = self._expr(CBinary(expr.op[:-1], expr.target,
                                           expr.value))
            addr = self._address_of(expr.target)
            self.emit(f"    sw {value}, 0({addr})")
            self.regs.pop()  # addr
            return value
        raise CompileError("unsupported assignment target", expr.line)

    def _unary(self, expr: CUnary) -> str:
        if expr.op in ("++", "--"):
            target = expr.operand
            binop = "+" if expr.op == "++" else "-"
            if expr.postfix:
                old = self._expr(target)
                update = CAssign("=", target, CBinary(binop, target, CNum(1)))
                self._expr_for_effect(update)
                return old
            return self._expr(CAssign("=", target,
                                      CBinary(binop, target, CNum(1))))
        reg = self._expr(expr.operand)
        if expr.op == "-":
            self.emit(f"    neg {reg}, {reg}")
        elif expr.op == "~":
            self.emit(f"    not {reg}, {reg}")
        elif expr.op == "!":
            self.emit(f"    seqz {reg}, {reg}")
        else:
            raise CompileError(f"unary '{expr.op}' not supported for codegen")
        return reg

    def _binary(self, expr: CBinary) -> str:
        if expr.op in ("&&", "||"):
            return self._short_circuit(expr)
        left = self._expr(expr.left)
        right = self._expr(expr.right)
        self.regs.pop()   # right
        ops = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "rem",
               "&": "and", "|": "or", "^": "xor", "<<": "sll", ">>": "sra"}
        if expr.op in ops:
            self.emit(f"    {ops[expr.op]} {left}, {left}, {right}")
            return left
        if expr.op == "<":
            self.emit(f"    slt {left}, {left}, {right}")
            return left
        if expr.op == ">":
            self.emit(f"    slt {left}, {right}, {left}")
            return left
        if expr.op == "<=":
            self.emit(f"    slt {left}, {right}, {left}")
            self.emit(f"    xori {left}, {left}, 1")
            return left
        if expr.op == ">=":
            self.emit(f"    slt {left}, {left}, {right}")
            self.emit(f"    xori {left}, {left}, 1")
            return left
        if expr.op == "==":
            self.emit(f"    sub {left}, {left}, {right}")
            self.emit(f"    seqz {left}, {left}")
            return left
        if expr.op == "!=":
            self.emit(f"    sub {left}, {left}, {right}")
            self.emit(f"    snez {left}, {left}")
            return left
        raise CompileError(f"binary '{expr.op}' not supported for codegen")

    def _short_circuit(self, expr: CBinary) -> str:
        end = self._label("sc")
        reg = self._expr(expr.left)
        self.emit(f"    snez {reg}, {reg}")
        if expr.op == "&&":
            self.emit(f"    beqz {reg}, {end}")
        else:
            self.emit(f"    bnez {reg}, {end}")
        right = self._expr(expr.right)
        self.emit(f"    snez {right}, {right}")
        self.emit(f"    mv {reg}, {right}")
        self.regs.pop()
        self.emit(f"{end}:")
        return reg

    def _ternary(self, expr: CTernary) -> str:
        else_label = self._label("terne")
        end_label = self._label("ternd")
        cond = self._expr(expr.cond)
        self.emit(f"    beqz {cond}, {else_label}")
        self.regs.pop()
        result = self._expr(expr.if_true)
        self.emit(f"    j {end_label}")
        self.emit(f"{else_label}:")
        self.regs.pop()
        other = self._expr(expr.if_false)
        assert other == result
        self.emit(f"{end_label}:")
        return result

    def _call(self, expr: CCall) -> str:
        builtin = self._builtin(expr)
        if builtin is not None:
            return builtin
        if expr.func not in self.program.functions:
            raise CompileError(f"call to undefined function '{expr.func}'",
                               expr.line)
        if len(expr.args) > len(_ARG_REGS):
            raise CompileError("too many call arguments", expr.line)
        # Temps are caller-saved in this simple ABI: spill any that are live
        # across the call (supports calls inside subexpressions).
        live = self.regs.depth
        for i in range(live):
            self.emit(f"    sw {_TEMP_REGS[i]}, {self.spill_slots[i]}(s0)")
        arg_regs: list[str] = []
        for arg in expr.args:
            arg_regs.append(self._expr(arg))
        for i, reg in enumerate(arg_regs):
            self.emit(f"    mv {_ARG_REGS[i]}, {reg}")
        for _ in arg_regs:
            self.regs.pop()
        self.emit(f"    call {expr.func}")
        for i in range(live):
            self.emit(f"    lw {_TEMP_REGS[i]}, {self.spill_slots[i]}(s0)")
        reg = self.regs.push()
        self.emit(f"    mv {reg}, a0")
        return reg

    def _builtin(self, expr: CCall) -> str | None:
        if expr.func == "abs":
            reg = self._expr(expr.args[0])
            skip = self._label("abs")
            self.emit(f"    bge {reg}, zero, {skip}")
            self.emit(f"    neg {reg}, {reg}")
            self.emit(f"{skip}:")
            return reg
        if expr.func in ("min", "max"):
            a = self._expr(expr.args[0])
            b = self._expr(expr.args[1])
            skip = self._label(expr.func)
            branch = "blt" if expr.func == "min" else "bge"
            self.emit(f"    {branch} {a}, {b}, {skip}")
            self.emit(f"    mv {a}, {b}")
            self.emit(f"{skip}:")
            self.regs.pop()
            return a
        if expr.func == "printf":
            # No console on the DUT: evaluate args for effect, result 0.
            for arg in expr.args[1:]:
                self._expr_for_effect(arg)
            reg = self.regs.push()
            self.emit(f"    li {reg}, 0")
            return reg
        return None


def compile_program(source: str | CProgram, entry: str = "main") -> str:
    """Compile mini-C to RV32IM assembly text.

    The output starts with a shim that calls ``entry`` and halts, so the
    core can run it directly.
    """
    program = cparse(source) if isinstance(source, str) else source
    if entry not in program.functions:
        raise CompileError(f"entry function '{entry}' not found")
    lines: list[str] = []
    label_counter = [0]
    lines.append("_start:")
    lines.append("    li sp, 0x10000")
    lines.append(f"    call {entry}")
    lines.append("    halt")
    for func in program.functions.values():
        _FunctionCompiler(program, func, lines.append, label_counter).compile()
    return "\n".join(lines)
