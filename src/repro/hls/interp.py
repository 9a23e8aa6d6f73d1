"""Interpreter for the mini-C subset, with CPU and FPGA execution modes.

The two modes are the heart of the HLSTester reproduction (Fig. 3): the same
program can behave differently after HLS because of

* **customized bit widths** — FPGA variables may be narrower than CPU ints,
  so arithmetic overflows where the CPU does not; and
* **pipeline hazards** — a loop marked ``#pragma HLS pipeline`` may read
  loop-carried scalars one iteration stale when the schedule ignores a
  feedback dependency.

:class:`Machine` exposes both as configuration, so the tester can diff CPU
behaviour against FPGA behaviour on identical inputs.

Execution is closure-compiled: the first call of each function turns its
AST into a tree of Python closures, one per node, with the node kind,
operator, wrap width, trace switch and loop hazard resolved once.  Every
closure takes the machine as its first argument, ``(m, env)``, and none
captures it, so a machine and its compiled code never form a reference
cycle.  Each closure ticks the step counter itself, before its children
run: one tick per statement and one per expression node evaluated, so
``steps``, the step limit and every runtime error depend only on the
evaluation order (DESIGN.md §14).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from .cast import (CAssign, CBinary, CBlock, CBreak, CCall, CCast, CContinue,
                   CDecl, CExpr, CExprStmt, CFor, CFunction, CIf, CIndex,
                   CNum, CPragmaStmt, CProgram, CReturn, CSizeof, CStmt,
                   CStr, CTernary, CType, CUnary, CVar, CWhile, walk_stmts)


class CRuntimeError(Exception):
    def __init__(self, kind: str, message: str, line: int = 0):
        self.kind = kind
        self.line = line
        super().__init__(f"[C-RUN:{kind}] {message} (line {line})")


@dataclass
class Pointer:
    """A pointer into a heap block or array storage."""

    block: list
    offset: int = 0
    freed: bool = False


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value):
        self.value = value


def _width_of(ctype: CType) -> int:
    return {"char": 8, "bool": 1}.get(ctype.base, 32)


def _wrap(value: int, width: int, signed: bool) -> int:
    mask = (1 << width) - 1
    value &= mask
    if signed and value & (1 << (width - 1)):
        value -= 1 << width
    return value


@dataclass
class TraceEvent:
    """One observed execution event, consumed by spectra collection."""

    kind: str          # 'line' | 'assign' | 'branch' | 'call'
    line: int
    name: str = ""
    value: int | None = None


@dataclass
class ExecutionResult:
    value: int | None
    output: list[str] = field(default_factory=list)
    steps: int = 0
    trace: list[TraceEvent] = field(default_factory=list)
    heap_blocks_leaked: int = 0


def _ctype_width(ctype: CType | None) -> tuple[int, bool]:
    """``(bits, signed)`` of a variable of ``ctype``; undeclared is int."""
    if ctype is None:
        return 32, True
    return _width_of(ctype), ctype.base not in ("unsigned", "bool")


def _default_value(ctype: CType):
    if ctype.is_array:
        size = ctype.array_size if ctype.array_size and ctype.array_size > 0 else 1
        return Pointer([0] * size)
    if ctype.is_pointer:
        return Pointer([], 0, freed=True)  # null-ish
    return 0


def _as_int(value, line: int) -> int:
    if isinstance(value, Pointer):
        return 0 if value.freed and not value.block else 1
    if value is None:
        raise CRuntimeError("value", "void value used in expression", line)
    return int(value)


def _binop(op: str, a: int, b: int, line: int) -> int:
    if op == "+":
        return _wrap(a + b, 32, True)
    if op == "-":
        return _wrap(a - b, 32, True)
    if op == "*":
        return _wrap(a * b, 32, True)
    if op in ("/", "%"):
        if b == 0:
            raise CRuntimeError("divzero", "division by zero", line)
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        if op == "/":
            return _wrap(q, 32, True)
        return _wrap(a - q * b, 32, True)
    if op == "<<":
        return _wrap(a << (b & 31), 32, True)
    if op == ">>":
        return _wrap(a >> (b & 31), 32, True)
    if op == "&":
        return _wrap(a & b, 32, True)
    if op == "|":
        return _wrap(a | b, 32, True)
    if op == "^":
        return _wrap(a ^ b, 32, True)
    if op == "==":
        return int(a == b)
    if op == "!=":
        return int(a != b)
    if op == "<":
        return int(a < b)
    if op == "<=":
        return int(a <= b)
    if op == ">":
        return int(a > b)
    if op == ">=":
        return int(a >= b)
    raise CRuntimeError("eval", f"binary '{op}' unsupported", line)


def _binary_values(op: str, a, b):
    """A binary operator on evaluated operands, pointer arithmetic included."""
    if isinstance(a, Pointer) and isinstance(b, int):
        return Pointer(a.block, a.offset + b, a.freed)
    if isinstance(a, int) and isinstance(b, Pointer):
        return Pointer(b.block, b.offset + a, b.freed)
    return _binop(op, _as_int(a, 0), _as_int(b, 0), 0)


def _lookup(m: "Machine", name: str, line: int):
    """A name that is not a local: a global, ``NULL``, or an error."""
    if name in m._globals:
        return m._globals[name]
    if name == "NULL":
        return Pointer([], 0, freed=True)
    raise CRuntimeError("name", f"undefined variable '{name}'", line)


def _timeout(limit: int, line: int) -> CRuntimeError:
    return CRuntimeError("timeout", f"exceeded {limit} execution steps "
                         f"(unbounded loop?)", line)


def _format_printf(fmt: str, values: list) -> str:
    out: list[str] = []
    i = 0
    vi = 0
    while i < len(fmt):
        ch = fmt[i]
        if ch == "%" and i + 1 < len(fmt):
            j = i + 1
            while j < len(fmt) and fmt[j] in "0123456789.-+l":
                j += 1
            spec = fmt[j] if j < len(fmt) else "%"
            i = j + 1
            if spec == "%":
                out.append("%")
                continue
            value = values[vi] if vi < len(values) else 0
            vi += 1
            if isinstance(value, Pointer):
                out.append(f"<ptr+{value.offset}>")
            elif spec == "x":
                out.append(f"{int(value) & 0xFFFFFFFF:x}")
            elif spec == "c":
                out.append(chr(int(value) & 0xFF))
            else:
                out.append(str(value))
        else:
            out.append(ch)
            i += 1
    return "".join(out)


# -- loop-carried read/write analysis ------------------------------------------


def carried_vars(body: CStmt) -> set[str]:
    """Scalars both read and written in a loop body (loop-carried)."""
    reads: set[str] = set()
    writes: set[str] = set()
    _collect_rw(body, reads, writes)
    return reads & writes


def _collect_rw(node, reads: set[str], writes: set[str]) -> None:
    if isinstance(node, CBlock):
        for s in node.stmts:
            _collect_rw(s, reads, writes)
    elif isinstance(node, CIf):
        _collect_rw_expr(node.cond, reads)
        _collect_rw(node.then, reads, writes)
        if node.other is not None:
            _collect_rw(node.other, reads, writes)
    elif isinstance(node, CFor):
        for part in (node.init, node.body):
            if part is not None:
                _collect_rw(part, reads, writes)
        for part in (node.cond, node.step):
            if part is not None:
                _collect_rw_expr(part, reads)
    elif isinstance(node, CWhile):
        _collect_rw_expr(node.cond, reads)
        _collect_rw(node.body, reads, writes)
    elif isinstance(node, CExprStmt):
        _collect_rw_expr(node.expr, reads, writes)
    elif isinstance(node, CDecl) and node.init is not None:
        _collect_rw_expr(node.init, reads)
        writes.add(node.name)
    elif isinstance(node, CReturn) and node.value is not None:
        _collect_rw_expr(node.value, reads)


def _collect_rw_expr(expr: CExpr, reads: set[str],
                     writes: set[str] | None = None) -> None:
    if isinstance(expr, CVar):
        reads.add(expr.name)
    elif isinstance(expr, CAssign):
        if isinstance(expr.target, CVar) and writes is not None:
            writes.add(expr.target.name)
            if expr.op != "=":
                reads.add(expr.target.name)
        else:
            _collect_rw_expr(expr.target, reads)
        _collect_rw_expr(expr.value, reads, writes)
    elif isinstance(expr, CUnary):
        if expr.op in ("++", "--") and isinstance(expr.operand, CVar):
            reads.add(expr.operand.name)
            if writes is not None:
                writes.add(expr.operand.name)
        else:
            _collect_rw_expr(expr.operand, reads, writes)
    elif isinstance(expr, CBinary):
        _collect_rw_expr(expr.left, reads, writes)
        _collect_rw_expr(expr.right, reads, writes)
    elif isinstance(expr, CTernary):
        for e in (expr.cond, expr.if_true, expr.if_false):
            _collect_rw_expr(e, reads, writes)
    elif isinstance(expr, CIndex):
        _collect_rw_expr(expr.base, reads)
        _collect_rw_expr(expr.index, reads, writes)
    elif isinstance(expr, CCall):
        for a in expr.args:
            _collect_rw_expr(a, reads, writes)
    elif isinstance(expr, CCast):
        _collect_rw_expr(expr.operand, reads, writes)


def _declared_types(func: CFunction) -> dict[str, set[CType]]:
    """Every type a name is declared with in ``func`` (params included)."""
    types: dict[str, set[CType]] = {}
    for param in func.params:
        types.setdefault(param.name, set()).add(param.ctype)
    for stmt in walk_stmts(func.body):
        if type(stmt) is CDecl:
            types.setdefault(stmt.name, set()).add(stmt.ctype)
    return types


# -- the machine ---------------------------------------------------------------


class Machine:
    """Executes mini-C programs.

    Parameters
    ----------
    mode:
        ``"cpu"`` — faithful 32-bit execution; ``"fpga"`` — apply
        ``width_overrides`` and pipeline-hazard semantics.
    width_overrides:
        variable name → bit width (FPGA custom bit widths).
    pipeline_hazard:
        when true, loops carrying a ``#pragma HLS pipeline`` read
        loop-carried scalars one iteration stale.
    trace:
        record :class:`TraceEvent` stream (needed for spectra collection).

    The configuration is read once, when the first call compiles code.
    C globals start from their initializers on every :meth:`call`; a store
    to a name that is not a local writes the global.
    """

    MAX_STEPS = 2_000_000
    MAX_DEPTH = 128

    def __init__(self, program: CProgram, mode: str = "cpu",
                 width_overrides: dict[str, int] | None = None,
                 pipeline_hazard: bool = False,
                 trace: bool = False,
                 max_steps: int | None = None):
        if mode not in ("cpu", "fpga"):
            raise ValueError(f"unknown mode '{mode}'")
        self.program = program
        self.mode = mode
        self.width_overrides = width_overrides or {}
        self.pipeline_hazard = pipeline_hazard and mode == "fpga"
        self.trace_enabled = trace
        self.max_steps = max_steps or self.MAX_STEPS
        self.steps = 0
        self.depth = 0
        self.output: list[str] = []
        self.trace: list[TraceEvent] = []
        self.live_heap = 0
        self._globals: dict[str, object] = {}
        self._types: dict[str, CType] = {}
        self._code: dict[str, object] = {}
        self._compiler: _Compiler | None = None

    # -- public API ---------------------------------------------------------------

    def call(self, name: str, *args) -> ExecutionResult:
        """Call a function with Python ints / lists (arrays) as arguments."""
        if self.program.globals:
            self._init_globals()
        self.steps = 0
        self.output = []
        self.trace = []
        func = self.program.function(name)
        converted: list[object] = []
        for param, arg in zip(func.params, args):
            if param.ctype.is_array or param.ctype.is_pointer:
                if not isinstance(arg, list):
                    raise TypeError(f"argument '{param.name}' expects a list")
                converted.append(Pointer(arg))
            else:
                converted.append(int(arg))
        value = self._function(name)(self, converted)
        return ExecutionResult(value=value, output=list(self.output),
                               steps=self.steps, trace=list(self.trace),
                               heap_blocks_leaked=self.live_heap)

    # -- compiled code ---------------------------------------------------------------

    def _function(self, name: str):
        """The compiled entry of function ``name``, compiled on first use."""
        code = self._code.get(name)
        if code is None:
            if self._compiler is None:
                self._compiler = _Compiler(self)
            code = self._compiler.function(self.program.functions[name])
            self._code[name] = code
        return code

    def _init_globals(self) -> None:
        """Fresh globals, initializers evaluated in declaration order."""
        if self._compiler is None:
            self._compiler = _Compiler(self)
        self._globals = {}
        self.steps = 0
        self.trace = []
        for decl, init in self._compiler.globals():
            self._globals[decl.name] = init(self)


class _Compiler:
    """Turns mini-C ASTs into closures for one machine configuration.

    It copies the configuration out of the machine and keeps no reference
    to it; nothing it builds refers to the machine either.
    """

    def __init__(self, machine: Machine):
        self.program = machine.program
        self.fpga = machine.mode == "fpga"
        self.overrides = dict(machine.width_overrides)
        self.hazard = machine.pipeline_hazard
        self.tracing = machine.trace_enabled
        self.limit = machine.max_steps
        self.max_depth = machine.MAX_DEPTH
        self.global_types = {d.name: d.ctype for d in self.program.globals}
        # Per function being compiled: names whose store width depends on
        # which of their declarations has executed.
        self.dynamic: set[str] = set()
        self._globals: list | None = None

    # -- widths ---------------------------------------------------------------------

    def var_width(self, name: str, ctype: CType | None) -> tuple[int, bool]:
        if self.fpga and name in self.overrides:
            return self.overrides[name], True
        return _ctype_width(ctype)

    # -- functions ------------------------------------------------------------------

    def function(self, func: CFunction):
        self.dynamic = {
            name for name, ctypes in _declared_types(func).items()
            if {self.var_width(name, t) for t in ctypes} != {(32, True)}
            and not (self.fpga and name in self.overrides)}
        body = self.stmt(func.body)
        fname, fline, tracing = func.name, func.line, self.tracing
        nparams = len(func.params)
        names = tuple(p.name for p in func.params)
        max_depth = self.max_depth
        param_types = {p.name: p.ctype for p in func.params} \
            if self.dynamic else None

        def invoke(m, args):
            if len(args) != nparams:
                raise CRuntimeError("arity", f"'{fname}' expects {nparams} "
                                    f"args, got {len(args)}", fline)
            m.depth += 1
            if m.depth > max_depth:
                m.depth -= 1
                raise CRuntimeError("stack", f"recursion too deep in "
                                    f"'{fname}'", fline)
            env = dict(zip(names, args))
            if param_types is not None:
                saved = m._types
                m._types = dict(param_types)
            if tracing:
                m.trace.append(TraceEvent("call", fline, fname))
            try:
                body(m, env)
            except _Return as ret:
                return ret.value
            finally:
                m.depth -= 1
                if param_types is not None:
                    m._types = saved
            return None
        return invoke

    def globals(self) -> list[tuple[CDecl, object]]:
        """``(decl, init)`` per global; ``init(m)`` returns its fresh value."""
        if self._globals is not None:
            return self._globals
        self.dynamic = set()
        out = self._globals = []
        for decl in self.program.globals:
            if decl.ctype.is_array or decl.init is None:
                out.append((decl, lambda m, t=decl.ctype: _default_value(t)))
                continue
            value = self.expr(decl.init)
            width, signed = self.var_width(decl.name, decl.ctype)

            def init(m, value=value, width=width, signed=signed):
                v = value(m, {})
                return v if isinstance(v, Pointer) else _wrap(int(v), width,
                                                              signed)
            out.append((decl, init))
        return out

    # -- statements -----------------------------------------------------------------

    def stmt(self, s: CStmt):
        if isinstance(s, CBlock):
            return self.block(s)
        if isinstance(s, CDecl):
            return self.decl(s)
        if isinstance(s, CExprStmt):
            return self.expr_stmt(s)
        if isinstance(s, CIf):
            return self.if_stmt(s)
        if isinstance(s, CFor):
            return self.for_stmt(s)
        if isinstance(s, CWhile):
            return self.while_stmt(s)
        if isinstance(s, CReturn):
            return self.return_stmt(s)
        if isinstance(s, CBreak):
            def brk(m, env):
                raise _Break()
            return brk
        if isinstance(s, CContinue):
            def cont(m, env):
                raise _Continue()
            return cont
        if isinstance(s, CPragmaStmt):
            return _noop
        kind = type(s).__name__

        def unsupported(m, env):
            raise CRuntimeError("exec", f"cannot execute {kind}")
        return unsupported

    def block(self, s: CBlock):
        stmts = tuple(self.stmt(x) for x in s.stmts
                      if not isinstance(x, CPragmaStmt))
        if not stmts:
            return _noop
        if len(stmts) == 1:
            return stmts[0]
        if len(stmts) == 2:
            first, second = stmts

            def block2(m, env):
                first(m, env)
                second(m, env)
            return block2

        def block(m, env):
            for run in stmts:
                run(m, env)
        return block

    def decl(self, s: CDecl):
        limit, line, name, ctype = self.limit, s.line, s.name, s.ctype
        tracing = self.tracing
        typed = name in self.dynamic
        if ctype.is_array:
            size = ctype.array_size

            def decl_array(m, env):
                m.steps += 1
                if m.steps > limit:
                    raise _timeout(limit, line)
                if tracing:
                    m.trace.append(TraceEvent("line", line))
                if size is None or size < 0:
                    raise CRuntimeError("decl", f"array '{name}' has no "
                                        f"constant size", line)
                env[name] = Pointer([0] * size)
                if typed:
                    m._types[name] = ctype
            return decl_array
        if s.init is None:
            def decl_default(m, env):
                m.steps += 1
                if m.steps > limit:
                    raise _timeout(limit, line)
                if tracing:
                    m.trace.append(TraceEvent("line", line))
                env[name] = _default_value(ctype)
                if typed:
                    m._types[name] = ctype
            return decl_default
        init = self.expr(s.init)
        width, signed = self.var_width(name, ctype)

        def decl_init(m, env):
            m.steps += 1
            if m.steps > limit:
                raise _timeout(limit, line)
            if tracing:
                m.trace.append(TraceEvent("line", line))
            value = init(m, env)
            if isinstance(value, Pointer):
                env[name] = value
            else:
                env[name] = _wrap(int(value), width, signed)
            if typed:
                m._types[name] = ctype
        return decl_init

    def expr_stmt(self, s: CExprStmt):
        limit, line, tracing = self.limit, s.line, self.tracing
        run = self.expr(s.expr)

        def expr_stmt(m, env):
            m.steps += 1
            if m.steps > limit:
                raise _timeout(limit, line)
            if tracing:
                m.trace.append(TraceEvent("line", line))
            run(m, env)
        return expr_stmt

    def if_stmt(self, s: CIf):
        limit, line, tracing = self.limit, s.line, self.tracing
        cond = self.expr(s.cond)
        then = self.stmt(s.then)
        other = self.stmt(s.other) if s.other is not None else _noop

        def if_stmt(m, env):
            m.steps += 1
            if m.steps > limit:
                raise _timeout(limit, line)
            c = cond(m, env)
            if type(c) is not int:
                c = _as_int(c, line)
            if tracing:
                m.trace.append(TraceEvent("branch", line, value=1 if c else 0))
            if c:
                then(m, env)
            else:
                other(m, env)
        return if_stmt

    def return_stmt(self, s: CReturn):
        limit, line, tracing = self.limit, s.line, self.tracing
        value = self.expr(s.value) if s.value is not None else None

        def return_stmt(m, env):
            m.steps += 1
            if m.steps > limit:
                raise _timeout(limit, line)
            if tracing:
                m.trace.append(TraceEvent("line", line))
            raise _Return(value(m, env) if value is not None else None)
        return return_stmt

    def for_stmt(self, s: CFor):
        limit, line = self.limit, s.line
        init = self.stmt(s.init) if s.init is not None else _noop
        cond = self.expr(s.cond) if s.cond is not None else None
        step = self.expr(s.step) if s.step is not None else None
        body = self.stmt(s.body)
        if self.hazard and any("pipeline" in p.lower() for p in s.pragmas):
            carried = carried_vars(s.body)
        else:
            carried = None

        if carried is None:
            def for_loop(m, env):
                init(m, env)
                while True:
                    m.steps += 1
                    if m.steps > limit:
                        raise _timeout(limit, line)
                    if cond is not None:
                        c = cond(m, env)
                        if not (c if type(c) is int else _as_int(c, line)):
                            break
                    try:
                        body(m, env)
                    except _Break:
                        break
                    except _Continue:
                        pass
                    if step is not None:
                        step(m, env)
            return for_loop

        def hazard_loop(m, env):
            # Reads of carried scalars see the previous iteration's values
            # (the snapshot taken before it ran); writes land in ``env``.
            init(m, env)
            stale: dict[str, object] = {}
            while True:
                m.steps += 1
                if m.steps > limit:
                    raise _timeout(limit, line)
                if cond is not None:
                    c = cond(m, env)
                    if not (c if type(c) is int else _as_int(c, line)):
                        break
                snapshot = {v: env.get(v) for v in carried if v in env}
                if stale:
                    exec_env = _HazardEnv(env, {v: stale[v] for v in carried
                                                if v in stale})
                else:
                    exec_env = env
                try:
                    body(m, exec_env)
                except _Break:
                    break
                except _Continue:
                    pass
                stale = snapshot
                if step is not None:
                    step(m, env)
        return hazard_loop

    def while_stmt(self, s: CWhile):
        limit, line = self.limit, s.line
        cond = self.expr(s.cond)
        body = self.stmt(s.body)

        if not s.do_while:
            def while_loop(m, env):
                while True:
                    m.steps += 1
                    if m.steps > limit:
                        raise _timeout(limit, line)
                    c = cond(m, env)
                    if not (c if type(c) is int else _as_int(c, line)):
                        break
                    try:
                        body(m, env)
                    except _Break:
                        break
                    except _Continue:
                        pass
            return while_loop

        def do_while(m, env):
            # The first pass skips the loop-top test and tests once after
            # the body; every later pass tests at the loop top only, so the
            # test runs twice between the first and second passes.
            first = True
            while True:
                m.steps += 1
                if m.steps > limit:
                    raise _timeout(limit, line)
                if not first:
                    c = cond(m, env)
                    if not (c if type(c) is int else _as_int(c, line)):
                        break
                try:
                    body(m, env)
                except _Break:
                    break
                except _Continue:
                    pass
                if first:
                    first = False
                    c = cond(m, env)
                    if not (c if type(c) is int else _as_int(c, line)):
                        break
        return do_while

    # -- expressions ----------------------------------------------------------------

    def expr(self, e: CExpr):
        if isinstance(e, CNum):
            return self.const(e.value)
        if isinstance(e, CStr):
            return self.const(e.text)
        if isinstance(e, CVar):
            return self.var(e)
        if isinstance(e, CAssign):
            return self.assign(e)
        if isinstance(e, CUnary):
            return self.unary(e)
        if isinstance(e, CBinary):
            return self.binary(e)
        if isinstance(e, CTernary):
            return self.ternary(e)
        if isinstance(e, CIndex):
            return self.index(e)
        if isinstance(e, CCall):
            return self.call(e)
        if isinstance(e, CCast):
            return self.cast(e)
        if isinstance(e, CSizeof):
            return self.const(1 if e.ctype.base in ("char", "bool") else 4)
        limit, kind = self.limit, type(e).__name__

        def unsupported(m, env):
            m.steps += 1
            if m.steps > limit:
                raise _timeout(limit, 0)
            raise CRuntimeError("eval", f"cannot evaluate {kind}")
        return unsupported

    def const(self, value):
        limit = self.limit

        def const(m, env):
            m.steps += 1
            if m.steps > limit:
                raise _timeout(limit, 0)
            return value
        return const

    def var(self, e: CVar):
        limit, name, line = self.limit, e.name, e.line

        def var(m, env):
            m.steps += 1
            if m.steps > limit:
                raise _timeout(limit, 0)
            try:
                return env[name]
            except KeyError:
                return _lookup(m, name, line)
        return var

    def operand(self, e: CExpr) -> tuple:
        """``(kind, payload, line)`` of an operand its parent evaluates
        inline: kind True is a variable (payload its name), False a number
        (payload its value), None any other node (payload its closure)."""
        if isinstance(e, CVar):
            return True, e.name, e.line
        if isinstance(e, CNum):
            return False, e.value, 0
        return None, self.expr(e), 0

    def store(self, name: str, line: int):
        """``store(m, env, value)``: assign a scalar variable, wrapping to
        its width; pointers are stored as they are."""
        tracing = self.tracing
        # A dynamic name's width depends on which of its declarations ran.
        dynamic = name in self.dynamic
        width, signed = self.var_width(name, None)

        def store_local(m, env, value):
            if isinstance(value, Pointer):
                env[name] = value
                return value
            if dynamic:
                value = _wrap(int(value), *_ctype_width(m._types.get(name)))
            else:
                value = _wrap(int(value), width, signed)
            env[name] = value
            if tracing:
                m.trace.append(TraceEvent("assign", line, name, value))
            return value

        if name not in self.global_types:
            return store_local
        gwidth, gsigned = self.var_width(name, self.global_types[name])

        def store(m, env, value):
            if name in env or name not in m._globals:
                return store_local(m, env, value)
            if not isinstance(value, Pointer):
                value = _wrap(int(value), gwidth, gsigned)
                if tracing:
                    m.trace.append(TraceEvent("assign", line, name, value))
            m._globals[name] = value
            return value
        return store

    def plain(self, name: str) -> bool:
        """Whether every store to ``name`` is a 32-bit signed local store."""
        return (name not in self.dynamic and name not in self.global_types
                and self.var_width(name, None) == (32, True))

    def index_parts(self, e: CIndex):
        """``parts(m, env) -> (pointer, index)``, bounds-checked; the index
        node's own tick is the caller's."""
        limit, line = self.limit, e.line
        bk, bv, bline = self.operand(e.base)
        ik, iv, iline = self.operand(e.index)

        def parts(m, env):
            if bk is None:
                ptr = bv(m, env)
            else:
                m.steps += 1
                if m.steps > limit:
                    raise _timeout(limit, 0)
                if bk:
                    try:
                        ptr = env[bv]
                    except KeyError:
                        ptr = _lookup(m, bv, bline)
                else:
                    ptr = bv
            if not isinstance(ptr, Pointer):
                raise CRuntimeError("deref", "indexing a non-array value",
                                    line)
            if ptr.freed:
                raise CRuntimeError("useafterfree",
                                    "access to freed/null memory", line)
            if ik is None:
                idx = iv(m, env)
            else:
                m.steps += 1
                if m.steps > limit:
                    raise _timeout(limit, 0)
                if ik:
                    try:
                        idx = env[iv]
                    except KeyError:
                        idx = _lookup(m, iv, iline)
                else:
                    idx = iv
            if type(idx) is not int:
                idx = _as_int(idx, line)
            pos = ptr.offset + idx
            if pos < 0 or pos >= len(ptr.block):
                raise CRuntimeError("bounds", f"index {idx} out of bounds "
                                    f"(size {len(ptr.block)})", line)
            return ptr, pos
        return parts

    def index(self, e: CIndex):
        limit, parts = self.limit, self.index_parts(e)

        def index_read(m, env):
            m.steps += 1
            if m.steps > limit:
                raise _timeout(limit, 0)
            ptr, pos = parts(m, env)
            return ptr.block[pos]
        return index_read

    def assign(self, e: CAssign):
        limit, line, tracing = self.limit, e.line, self.tracing
        value_of = self.expr(e.value)
        target = e.target
        if e.op != "=":
            # Compound: the value first, then the target read in full.
            current_of = self.expr(target)
            binop = e.op[:-1]
            fn, wraps = _FAST_BINOPS.get(binop, (None, False))
            rhs = value_of

            def value_of(m, env):
                value = rhs(m, env)
                current = current_of(m, env)
                if wraps and type(value) is int and type(current) is int:
                    return ((fn(current, value) + 0x80000000)
                            & 0xFFFFFFFF) - 0x80000000
                return _binop(binop, _as_int(current, line),
                              _as_int(value, line), line)

        if isinstance(target, CVar):
            name = target.name
            store = self.store(name, line)
            plain = self.plain(name)

            def assign_var(m, env):
                m.steps += 1
                if m.steps > limit:
                    raise _timeout(limit, 0)
                value = value_of(m, env)
                if not plain or type(value) is not int:
                    return store(m, env, value)
                value = ((value + 0x80000000) & 0xFFFFFFFF) - 0x80000000
                env[name] = value
                if tracing:
                    m.trace.append(TraceEvent("assign", line, name, value))
                return value
            return assign_var
        if isinstance(target, CIndex):
            parts = self.index_parts(target)

            def assign_index(m, env):
                m.steps += 1
                if m.steps > limit:
                    raise _timeout(limit, 0)
                value = value_of(m, env)
                ptr, pos = parts(m, env)
                if isinstance(value, Pointer):
                    stored = value
                else:
                    stored = _wrap(int(value), 32, True)
                ptr.block[pos] = stored
                if tracing:
                    m.trace.append(TraceEvent(
                        "assign", line, "<mem>",
                        stored if isinstance(stored, int) else None))
                return stored
            return assign_index
        if isinstance(target, CUnary) and target.op == "*":
            pointer_of = self.expr(target.operand)

            def assign_deref(m, env):
                m.steps += 1
                if m.steps > limit:
                    raise _timeout(limit, 0)
                value = value_of(m, env)
                ptr = pointer_of(m, env)
                if not isinstance(ptr, Pointer) or ptr.freed:
                    raise CRuntimeError("deref",
                                        "write through invalid pointer", line)
                if ptr.offset >= len(ptr.block):
                    raise CRuntimeError("bounds",
                                        "pointer write out of bounds", line)
                ptr.block[ptr.offset] = _wrap(int(value), 32, True)
                return ptr.block[ptr.offset]
            return assign_deref

        def assign_unsupported(m, env):
            m.steps += 1
            if m.steps > limit:
                raise _timeout(limit, 0)
            value_of(m, env)
            raise CRuntimeError("assign", "unsupported assignment target",
                                line)
        return assign_unsupported

    def unary(self, e: CUnary):
        limit, op = self.limit, e.op
        if op in ("++", "--"):
            return self.incdec(e)
        operand = self.expr(e.operand)

        def unary(m, env):
            m.steps += 1
            if m.steps > limit:
                raise _timeout(limit, 0)
            value = operand(m, env)
            if op == "*":
                if not isinstance(value, Pointer):
                    raise CRuntimeError("deref", "dereferencing a non-pointer",
                                        0)
                if value.freed:
                    raise CRuntimeError("useafterfree",
                                        "read through freed pointer", 0)
                if value.offset >= len(value.block):
                    raise CRuntimeError("bounds", "pointer read out of bounds",
                                        0)
                return value.block[value.offset]
            if op == "&":
                if isinstance(value, Pointer):
                    return value
                raise CRuntimeError("addr", "address-of scalar locals is not "
                                    "supported by the mini-C subset", 0)
            iv = value if type(value) is int else _as_int(value, 0)
            if op == "-":
                return _wrap(-iv, 32, True)
            if op == "~":
                return _wrap(~iv, 32, True)
            if op == "!":
                return 0 if iv else 1
            raise CRuntimeError("eval", f"unary '{op}' unsupported", 0)
        return unary

    def incdec(self, e: CUnary):
        limit = self.limit
        if not isinstance(e.operand, CVar):
            def bad(m, env):
                m.steps += 1
                if m.steps > limit:
                    raise _timeout(limit, 0)
                raise CRuntimeError("assign", "++/-- needs a variable", 0)
            return bad
        name, line = e.operand.name, e.operand.line
        store, plain = self.store(name, 0), self.plain(name)
        delta = 1 if e.op == "++" else -1
        postfix, tracing = e.postfix, self.tracing

        def incdec(m, env):
            # Two ticks: this node, then its variable operand.
            m.steps += 1
            if m.steps > limit:
                raise _timeout(limit, 0)
            m.steps += 1
            if m.steps > limit:
                raise _timeout(limit, 0)
            try:
                old = env[name]
            except KeyError:
                old = _lookup(m, name, line)
            if type(old) is not int:
                old = _as_int(old, 0)
            new = old + delta
            if plain:
                value = ((new + 0x80000000) & 0xFFFFFFFF) - 0x80000000
                env[name] = value
                if tracing:
                    m.trace.append(TraceEvent("assign", 0, name, value))
            else:
                store(m, env, new)
            if postfix:
                return old
            return ((new + 0x80000000) & 0xFFFFFFFF) - 0x80000000
        return incdec

    def binary(self, e: CBinary):
        limit, op = self.limit, e.op
        if op in ("&&", "||"):
            left, right = self.expr(e.left), self.expr(e.right)
            want = 0 if op == "&&" else 1

            def logical(m, env):
                m.steps += 1
                if m.steps > limit:
                    raise _timeout(limit, 0)
                a = left(m, env)
                if type(a) is not int:
                    a = _as_int(a, 0)
                if (1 if a else 0) == want:
                    return want
                b = right(m, env)
                if type(b) is not int:
                    b = _as_int(b, 0)
                return 1 if b else 0
            return logical
        fn, wraps = _FAST_BINOPS.get(op, (None, False))
        lk, lv, lline = self.operand(e.left)
        rk, rv, rline = self.operand(e.right)

        def binary(m, env):
            m.steps += 1
            if m.steps > limit:
                raise _timeout(limit, 0)
            if lk is None:
                a = lv(m, env)
            else:
                m.steps += 1
                if m.steps > limit:
                    raise _timeout(limit, 0)
                if lk:
                    try:
                        a = env[lv]
                    except KeyError:
                        a = _lookup(m, lv, lline)
                else:
                    a = lv
            if rk is None:
                b = rv(m, env)
            else:
                m.steps += 1
                if m.steps > limit:
                    raise _timeout(limit, 0)
                if rk:
                    try:
                        b = env[rv]
                    except KeyError:
                        b = _lookup(m, rv, rline)
                else:
                    b = rv
            if fn is not None and type(a) is int and type(b) is int:
                if wraps:
                    return ((fn(a, b) + 0x80000000) & 0xFFFFFFFF) - 0x80000000
                return 1 if fn(a, b) else 0
            return _binary_values(op, a, b)
        return binary

    def ternary(self, e: CTernary):
        limit = self.limit
        cond = self.expr(e.cond)
        if_true, if_false = self.expr(e.if_true), self.expr(e.if_false)

        def ternary(m, env):
            m.steps += 1
            if m.steps > limit:
                raise _timeout(limit, 0)
            c = cond(m, env)
            if type(c) is not int:
                c = _as_int(c, 0)
            return if_true(m, env) if c else if_false(m, env)
        return ternary

    def cast(self, e: CCast):
        limit = self.limit
        operand = self.expr(e.operand)
        width = _width_of(e.ctype)
        signed = e.ctype.base != "unsigned"

        def cast(m, env):
            m.steps += 1
            if m.steps > limit:
                raise _timeout(limit, 0)
            value = operand(m, env)
            if isinstance(value, Pointer):
                return value
            return _wrap(int(value), width, signed)
        return cast

    def call(self, e: CCall):
        limit, name, line = self.limit, e.func, e.line
        args = tuple(self.expr(a) for a in e.args)
        builtin = _BUILTINS.get(name)
        if builtin is not None:
            def call_builtin(m, env):
                m.steps += 1
                if m.steps > limit:
                    raise _timeout(limit, 0)
                return builtin(m, env, args, line)
            return call_builtin
        if name not in self.program.functions:
            def call_undefined(m, env):
                m.steps += 1
                if m.steps > limit:
                    raise _timeout(limit, 0)
                raise CRuntimeError("call", f"call to undefined function "
                                    f"'{name}'", line)
            return call_undefined

        def call(m, env):
            m.steps += 1
            if m.steps > limit:
                raise _timeout(limit, 0)
            values = [a(m, env) for a in args]
            return m._function(name)(m, values)
        return call


def _noop(m, env) -> None:
    return None


# Operators with an int-int fast path: (function, wraps to 32 bits).  The
# rest, and every operand that is not an int, go through ``_binop``.
_FAST_BINOPS = {
    "+": (operator.add, True), "-": (operator.sub, True),
    "*": (operator.mul, True), "&": (operator.and_, True),
    "|": (operator.or_, True), "^": (operator.xor, True),
    "==": (operator.eq, False), "!=": (operator.ne, False),
    "<": (operator.lt, False), "<=": (operator.le, False),
    ">": (operator.gt, False), ">=": (operator.ge, False)}


# -- builtins: ``builtin(m, env, args, line)`` over the compiled argument
# closures; a missing argument fails (IndexError) only when reached.


def _malloc(m, env, args, line):
    size = _as_int(args[0](m, env), line)
    count = max(0, size // 4) or max(0, size)
    m.live_heap += 1
    return Pointer([0] * count)


def _calloc(m, env, args, line):
    n = _as_int(args[0](m, env), line)
    m.live_heap += 1
    return Pointer([0] * max(0, n))


def _free(m, env, args, line):
    ptr = args[0](m, env)
    if isinstance(ptr, Pointer):
        if ptr.freed:
            raise CRuntimeError("doublefree", "double free", line)
        ptr.freed = True
        m.live_heap = max(0, m.live_heap - 1)
    return None


def _printf(m, env, args, line):
    if not args:
        return 0
    fmt = args[0](m, env)
    if not isinstance(fmt, str):
        m.output.append(str(fmt))
        return 0
    values = [a(m, env) for a in args[1:]]
    for text in _format_printf(fmt, values).split("\n"):
        if text:
            m.output.append(text)
    return 0


def _abs(m, env, args, line):
    return _wrap(abs(_as_int(args[0](m, env), line)), 32, True)


def _min(m, env, args, line):
    return min(_as_int(args[0](m, env), line), _as_int(args[1](m, env), line))


def _max(m, env, args, line):
    return max(_as_int(args[0](m, env), line), _as_int(args[1](m, env), line))


def _assert(m, env, args, line):
    if not _as_int(args[0](m, env), line):
        raise CRuntimeError("assert", "assertion failed", line)
    return 0


def _exit(m, env, args, line):
    raise _Return(_as_int(args[0](m, env), line) if args else 0)


_BUILTINS = {"malloc": _malloc, "calloc": _calloc, "free": _free,
             "printf": _printf, "abs": _abs, "min": _min, "max": _max,
             "assert": _assert, "exit": _exit}


class _HazardEnv(dict):
    """Environment overlay: reads of stale vars see previous-iteration values,
    writes land in the real environment."""

    def __init__(self, real: dict, stale: dict):
        super().__init__()
        self.real = real
        self.stale = stale

    def __getitem__(self, key):
        if key in self.stale:
            return self.stale[key]
        return self.real[key]

    def __setitem__(self, key, value):
        self.real[key] = value

    def __contains__(self, key):
        return key in self.real or key in self.stale

    def get(self, key, default=None):
        if key in self:
            return self[key]
        return default
