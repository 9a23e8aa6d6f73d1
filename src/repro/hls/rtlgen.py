"""C-to-RTL generation for HLS-compatible kernels.

Generates a combinational mini-Verilog module from a fully-unrollable scalar
kernel by symbolic execution: every C assignment becomes a fresh wire, ``if``
becomes a mux merge, constant-bound loops unroll, and the return value (or
output array) becomes output ports.

Custom bit widths (``width_overrides``) narrow the generated wires — this is
the mechanism by which FPGA deployment diverges from CPU execution, the
behavioural-discrepancy source HLSTester hunts (Fig. 3).

Scope: unsigned/non-negative data paths (documented in DESIGN.md).  Kernels
outside the subset raise :class:`RtlGenError`; callers fall back to the
analytic schedule model for QoR and to interpreter-vs-interpreter cosim for
behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cast import (CAssign, CBinary, CBlock, CBreak, CCall, CCast, CContinue,
                   CDecl, CExpr, CExprStmt, CFor, CIf, CIndex, CNum,
                   CPragmaStmt, CProgram, CReturn, CStmt, CTernary, CUnary,
                   CVar, CWhile)
from .compat import loop_bound

_MAX_UNROLL = 1024
_DEFAULT_WIDTH = 32
_MAX_ARRAY_PORT = 32


class RtlGenError(Exception):
    """Kernel falls outside the RTL-generatable subset."""


@dataclass
class GeneratedRtl:
    module_name: str
    source: str
    scalar_inputs: list[str]
    array_inputs: dict[str, int]       # name -> element count
    output_name: str
    output_width: int


@dataclass
class _Value:
    """A symbolic value: a Verilog expression string plus width."""

    expr: str
    width: int = _DEFAULT_WIDTH


class _ReturnHit(Exception):
    def __init__(self, value: _Value):
        self.value = value


class RtlGenerator:
    def __init__(self, program: CProgram, function: str,
                 width_overrides: dict[str, int] | None = None):
        self.program = program
        self.func = program.function(function)
        self.width_overrides = width_overrides or {}
        self.wires: list[str] = []
        self.counter = 0

    # -- helpers -------------------------------------------------------------

    def _fresh(self, value: _Value, hint: str = "t") -> _Value:
        """Materialize an expression into a named wire (keeps output readable
        and applies width truncation — the discrepancy mechanism)."""
        self.counter += 1
        name = f"{hint}_{self.counter}"
        self.wires.append(
            f"  wire [{value.width - 1}:0] {name} = {value.expr};")
        return _Value(name, value.width)

    def _var_width(self, name: str) -> int:
        return self.width_overrides.get(name, _DEFAULT_WIDTH)

    # -- entry ------------------------------------------------------------------

    def generate(self) -> GeneratedRtl:
        func = self.func
        if func.ret.base == "void":
            raise RtlGenError("void kernels need output-array ports; use the "
                              "schedule model instead")
        env: dict[str, object] = {}
        scalar_inputs: list[str] = []
        array_inputs: dict[str, int] = {}
        port_decls: list[str] = []
        for param in func.params:
            if param.ctype.is_array:
                size = param.ctype.array_size or 0
                if size <= 0 or size > _MAX_ARRAY_PORT:
                    raise RtlGenError(
                        f"array parameter '{param.name}' too large/unsized for "
                        f"RTL ports ({size})")
                elems = []
                for i in range(size):
                    pname = f"{param.name}_{i}"
                    port_decls.append(f"input [{_DEFAULT_WIDTH - 1}:0] {pname}")
                    elems.append(_Value(pname))
                env[param.name] = elems
                array_inputs[param.name] = size
            elif param.ctype.is_pointer:
                raise RtlGenError(f"pointer parameter '{param.name}' is not "
                                  f"RTL-generatable")
            else:
                width = self._var_width(param.name)
                port_decls.append(f"input [{width - 1}:0] {param.name}")
                env[param.name] = _Value(param.name, width)
                scalar_inputs.append(param.name)

        try:
            self._exec_block(func.body, env)
            raise RtlGenError(f"kernel '{func.name}' has a path with no return")
        except _ReturnHit as hit:
            result = hit.value

        out_width = _DEFAULT_WIDTH
        ports = ", ".join(port_decls + [f"output [{out_width - 1}:0] out"])
        body = "\n".join(self.wires)
        source = (f"module {func.name}({ports});\n"
                  f"{body}\n"
                  f"  assign out = {result.expr};\n"
                  f"endmodule\n")
        return GeneratedRtl(func.name, source, scalar_inputs, array_inputs,
                            "out", out_width)

    # -- statements ------------------------------------------------------------------

    def _exec_block(self, stmt: CStmt, env: dict) -> None:
        if isinstance(stmt, CBlock):
            for s in stmt.stmts:
                self._exec_block(s, env)
            return
        if isinstance(stmt, CPragmaStmt):
            return
        if isinstance(stmt, CDecl):
            if stmt.ctype.is_array:
                size = stmt.ctype.array_size or 0
                if size <= 0 or size > _MAX_ARRAY_PORT * 4:
                    raise RtlGenError(f"array '{stmt.name}' not RTL-generatable")
                env[stmt.name] = [_Value("32'd0") for _ in range(size)]
            elif stmt.init is not None:
                value = self._eval(stmt.init, env)
                width = self._var_width(stmt.name)
                env[stmt.name] = self._fresh(_Value(value.expr, width), stmt.name)
            else:
                env[stmt.name] = _Value("32'd0", self._var_width(stmt.name))
            return
        if isinstance(stmt, CExprStmt):
            self._eval(stmt.expr, env)
            return
        if isinstance(stmt, CReturn):
            if stmt.value is None:
                raise RtlGenError("bare return in value-returning kernel")
            raise _ReturnHit(self._eval(stmt.value, env))
        if isinstance(stmt, CIf):
            self._exec_if(stmt, env)
            return
        if isinstance(stmt, CFor):
            self._exec_for(stmt, env)
            return
        if isinstance(stmt, (CWhile,)):
            raise RtlGenError("while loops must be bounded before RTL generation")
        if isinstance(stmt, (CBreak, CContinue)):
            raise RtlGenError("break/continue are not supported in RTL generation")
        raise RtlGenError(f"cannot generate RTL for {type(stmt).__name__}")

    def _exec_if(self, stmt: CIf, env: dict) -> None:
        cond = self._eval(stmt.cond, env)
        then_env = self._copy_env(env)
        else_env = self._copy_env(env)
        then_ret: _Value | None = None
        else_ret: _Value | None = None
        try:
            self._exec_block(stmt.then, then_env)
        except _ReturnHit as hit:
            then_ret = hit.value
        if stmt.other is not None:
            try:
                self._exec_block(stmt.other, else_env)
            except _ReturnHit as hit:
                else_ret = hit.value

        if then_ret is not None and else_ret is not None:
            raise _ReturnHit(_Value(
                f"(({cond.expr}) != 0 ? ({then_ret.expr}) : ({else_ret.expr}))",
                max(then_ret.width, else_ret.width)))
        if then_ret is not None or else_ret is not None:
            raise RtlGenError("early return on only one branch is not "
                              "RTL-generatable; restructure the kernel")
        # Merge modified variables with muxes.
        for name in set(then_env) | set(else_env):
            tv = then_env.get(name)
            ev = else_env.get(name)
            if isinstance(tv, int) or isinstance(ev, int):
                continue  # loop-constant bookkeeping (__const_*) keys
            if isinstance(tv, list) or isinstance(ev, list):
                if tv is None or ev is None:
                    continue
                merged = []
                for a, b in zip(tv, ev):
                    if a.expr == b.expr:
                        merged.append(a)
                    else:
                        merged.append(self._fresh(_Value(
                            f"(({cond.expr}) != 0 ? ({a.expr}) : ({b.expr}))",
                            max(a.width, b.width)), "mux"))
                env[name] = merged
                continue
            if tv is None or ev is None:
                continue
            if tv.expr != ev.expr:
                env[name] = self._fresh(_Value(
                    f"(({cond.expr}) != 0 ? ({tv.expr}) : ({ev.expr}))",
                    max(tv.width, ev.width)), "mux")
            else:
                env[name] = tv

    def _copy_env(self, env: dict) -> dict:
        out: dict = {}
        for key, value in env.items():
            out[key] = list(value) if isinstance(value, list) else value
        return out

    def _exec_for(self, stmt: CFor, env: dict) -> None:
        trips = loop_bound(stmt)
        if trips is None:
            raise RtlGenError("loop bound is not a compile-time constant")
        if trips > _MAX_UNROLL:
            raise RtlGenError(f"loop unrolls to {trips} > {_MAX_UNROLL} iterations")
        # Track the induction variable as a Python int.
        if stmt.init is not None:
            if isinstance(stmt.init, CDecl) and isinstance(stmt.init.init, CNum):
                var = stmt.init.name
                current = stmt.init.init.value
            elif isinstance(stmt.init, CExprStmt) \
                    and isinstance(stmt.init.expr, CAssign) \
                    and isinstance(stmt.init.expr.target, CVar) \
                    and isinstance(stmt.init.expr.value, CNum):
                var = stmt.init.expr.target.name
                current = stmt.init.expr.value.value
            else:
                raise RtlGenError("loop init must bind a constant")
        else:
            raise RtlGenError("loop without init is not RTL-generatable")

        step_amount = self._step_amount(stmt, var)
        for _ in range(trips):
            env[var] = _Value(f"32'd{current & 0xFFFFFFFF}")
            env[f"__const_{var}"] = current
            self._exec_block(stmt.body, env)
            current += step_amount
        env[var] = _Value(f"32'd{current & 0xFFFFFFFF}")
        env[f"__const_{var}"] = current

    @staticmethod
    def _step_amount(stmt: CFor, var: str) -> int:
        step = stmt.step
        if isinstance(step, CUnary) and step.op in ("++", "--"):
            return 1 if step.op == "++" else -1
        if isinstance(step, CAssign) and isinstance(step.target, CVar) \
                and step.target.name == var:
            if step.op in ("+=", "-=") and isinstance(step.value, CNum):
                return step.value.value * (1 if step.op == "+=" else -1)
            if step.op == "=" and isinstance(step.value, CBinary) \
                    and isinstance(step.value.right, CNum):
                return step.value.right.value * \
                    (1 if step.value.op == "+" else -1)
        raise RtlGenError("loop step must be a constant increment")

    # -- expressions --------------------------------------------------------------------

    def _const_index(self, expr: CExpr, env: dict) -> int:
        if isinstance(expr, CNum):
            return expr.value
        if isinstance(expr, CVar):
            key = f"__const_{expr.name}"
            if key in env:
                return env[key]
        if isinstance(expr, CBinary):
            left = self._const_index(expr.left, env)
            right = self._const_index(expr.right, env)
            ops = {"+": left + right, "-": left - right, "*": left * right,
                   "/": left // right if right else 0,
                   "%": left % right if right else 0}
            if expr.op in ops:
                return ops[expr.op]
        raise RtlGenError("array index must be loop-constant for RTL generation")

    def _eval(self, expr: CExpr, env: dict) -> _Value:
        if isinstance(expr, CNum):
            return _Value(f"32'd{expr.value & 0xFFFFFFFF}")
        if isinstance(expr, CVar):
            value = env.get(expr.name)
            if value is None:
                raise RtlGenError(f"undefined variable '{expr.name}'")
            if isinstance(value, list):
                raise RtlGenError(f"array '{expr.name}' used as a scalar")
            return value
        if isinstance(expr, CIndex):
            if not isinstance(expr.base, CVar):
                raise RtlGenError("nested indexing is not RTL-generatable")
            array = env.get(expr.base.name)
            if not isinstance(array, list):
                raise RtlGenError(f"'{expr.base.name}' is not an array")
            idx = self._const_index(expr.index, env)
            if not 0 <= idx < len(array):
                raise RtlGenError(f"index {idx} out of range for "
                                  f"'{expr.base.name}[{len(array)}]'")
            return array[idx]
        if isinstance(expr, CUnary):
            if expr.op in ("++", "--"):
                if not isinstance(expr.operand, CVar):
                    raise RtlGenError("++/-- target must be a variable")
                old = self._eval(expr.operand, env)
                op = "+" if expr.op == "++" else "-"
                new = self._fresh(_Value(f"({old.expr} {op} 32'd1)", old.width),
                                  expr.operand.name)
                env[expr.operand.name] = new
                return old if expr.postfix else new
            inner = self._eval(expr.operand, env)
            if expr.op == "-":
                return _Value(f"(32'd0 - {inner.expr})", inner.width)
            if expr.op == "~":
                return _Value(f"(~{inner.expr})", inner.width)
            if expr.op == "!":
                return _Value(f"({inner.expr} == 0 ? 32'd1 : 32'd0)")
            raise RtlGenError(f"unary '{expr.op}' is not RTL-generatable")
        if isinstance(expr, CBinary):
            return self._eval_binary(expr, env)
        if isinstance(expr, CTernary):
            cond = self._eval(expr.cond, env)
            a = self._eval(expr.if_true, env)
            b = self._eval(expr.if_false, env)
            return _Value(f"(({cond.expr}) != 0 ? ({a.expr}) : ({b.expr}))",
                          max(a.width, b.width))
        if isinstance(expr, CAssign):
            return self._eval_assign(expr, env)
        if isinstance(expr, CCall):
            return self._eval_call(expr, env)
        if isinstance(expr, CCast):
            return self._eval(expr.operand, env)
        raise RtlGenError(f"cannot generate RTL for {type(expr).__name__}")

    def _eval_binary(self, expr: CBinary, env: dict) -> _Value:
        if expr.op in ("&&", "||"):
            a = self._eval(expr.left, env)
            b = self._eval(expr.right, env)
            op = "&&" if expr.op == "&&" else "||"
            return _Value(f"(({a.expr} != 0) {op} ({b.expr} != 0) ? 32'd1 : 32'd0)")
        a = self._eval(expr.left, env)
        b = self._eval(expr.right, env)
        width = max(a.width, b.width)
        if expr.op in ("+", "-", "*", "&", "|", "^", "<<", ">>"):
            return _Value(f"({a.expr} {expr.op} {b.expr})", width)
        if expr.op in ("/", "%"):
            if not isinstance(expr.right, CNum) or expr.right.value <= 0 \
                    or expr.right.value & (expr.right.value - 1):
                raise RtlGenError("division only by constant powers of two")
            shift = expr.right.value.bit_length() - 1
            if expr.op == "/":
                return _Value(f"({a.expr} >> {shift})", width)
            return _Value(f"({a.expr} & 32'd{expr.right.value - 1})", width)
        if expr.op in ("==", "!=", "<", "<=", ">", ">="):
            return _Value(f"(({a.expr} {expr.op} {b.expr}) ? 32'd1 : 32'd0)")
        raise RtlGenError(f"binary '{expr.op}' is not RTL-generatable")

    def _eval_assign(self, expr: CAssign, env: dict) -> _Value:
        value = self._eval(expr.value, env)
        if expr.op != "=":
            current = self._eval(expr.target, env)
            op = expr.op[:-1]
            if op in ("/", "%"):
                raise RtlGenError("compound division is not RTL-generatable")
            value = _Value(f"({current.expr} {op} {value.expr})",
                           max(current.width, value.width))
        if isinstance(expr.target, CVar):
            width = self._var_width(expr.target.name)
            stored = self._fresh(_Value(value.expr, width), expr.target.name)
            env[expr.target.name] = stored
            return stored
        if isinstance(expr.target, CIndex) and isinstance(expr.target.base, CVar):
            array = env.get(expr.target.base.name)
            if not isinstance(array, list):
                raise RtlGenError(f"'{expr.target.base.name}' is not an array")
            idx = self._const_index(expr.target.index, env)
            if not 0 <= idx < len(array):
                raise RtlGenError("array store out of range")
            stored = self._fresh(value, f"{expr.target.base.name}{idx}")
            array[idx] = stored
            return stored
        raise RtlGenError("unsupported assignment target for RTL generation")

    def _eval_call(self, expr: CCall, env: dict) -> _Value:
        if expr.func in ("min", "max"):
            a = self._eval(expr.args[0], env)
            b = self._eval(expr.args[1], env)
            op = "<" if expr.func == "min" else ">"
            return _Value(f"(({a.expr} {op} {b.expr}) ? ({a.expr}) : ({b.expr}))",
                          max(a.width, b.width))
        if expr.func == "abs":
            a = self._eval(expr.args[0], env)
            return a  # non-negative datapath assumption
        raise RtlGenError(f"call to '{expr.func}' is not RTL-generatable "
                          f"(inline it first)")


def generate_rtl(program: CProgram, function: str,
                 width_overrides: dict[str, int] | None = None) -> GeneratedRtl:
    """Generate a combinational mini-Verilog module from a C kernel."""
    return RtlGenerator(program, function, width_overrides).generate()
