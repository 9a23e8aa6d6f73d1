"""HLS compatibility checking — the "Preprocessing" stage of Fig. 2.

A real HLS compiler rejects some constructs immediately (dynamic memory,
floats) but misses deeper issues until later passes; the paper's repair
framework therefore pairs the tool's error list with LLM-based detection of
*latent* issues.  We reproduce that split: each issue carries
``tool_reported`` — whether the simulated HLS compiler reports it on first
compile — while latent issues are only discoverable by (simulated) LLM
analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cast import (CAssign, CBinary, CBlock, CCall, CCast, CDecl, CExpr,
                   CExprStmt, CFor, CFunction, CIf, CIndex, CNum, CProgram,
                   CReturn, CStmt, CTernary, CUnary, CVar, CWhile, stmt_exprs,
                   walk_exprs, walk_stmts)


@dataclass(frozen=True)
class HlsIssue:
    code: str
    message: str
    line: int
    function: str
    tool_reported: bool      # visible in the first HLS compile log
    fixable: bool = True     # a repair template exists

    def __str__(self) -> str:
        return f"[{self.code}] {self.message} (function '{self.function}', line {self.line})"


@dataclass
class CompatReport:
    issues: list[HlsIssue] = field(default_factory=list)

    @property
    def compatible(self) -> bool:
        return not self.issues

    @property
    def tool_visible(self) -> list[HlsIssue]:
        return [i for i in self.issues if i.tool_reported]

    @property
    def latent(self) -> list[HlsIssue]:
        return [i for i in self.issues if not i.tool_reported]

    def error_log(self) -> str:
        """The first-compile error log a real HLS tool would print."""
        visible = self.tool_visible
        if not visible:
            return "HLS compile: OK"
        lines = ["HLS compile: FAILED"]
        lines.extend(f"  ERROR {issue}" for issue in visible)
        return "\n".join(lines)


_ISSUE_CODES = {
    "malloc": ("HLS001", "dynamic memory allocation is not synthesizable", True),
    "free": ("HLS001", "dynamic memory allocation is not synthesizable", True),
    "calloc": ("HLS001", "dynamic memory allocation is not synthesizable", True),
    "recursion": ("HLS002", "recursive calls are not synthesizable", False),
    "unbounded_loop": ("HLS003", "loop has no statically-bounded trip count", False),
    "unsized_pointer": ("HLS004", "pointer parameter without a bound array size", False),
    "io_call": ("HLS005", "I/O calls (printf) are not synthesizable", True),
    "pointer_arith": ("HLS006", "pointer arithmetic is not synthesizable", False),
    "global_state": ("HLS008", "mutable global state is not synthesizable", False),
    "dynamic_div": ("HLS009", "division by a runtime value needs a divider core", False),
}


def _make_issue(kind: str, line: int, function: str, detail: str = "") -> HlsIssue:
    code, message, tool_reported = _ISSUE_CODES[kind]
    if detail:
        message = f"{message}: {detail}"
    fixable = kind not in ("global_state",)
    return HlsIssue(code, message, line, function, tool_reported, fixable)


class CompatChecker:
    def __init__(self, program: CProgram, top: str | None = None):
        self.program = program
        self.top = top
        self.issues: list[HlsIssue] = []

    def check(self) -> CompatReport:
        if self.program.globals:
            for decl in self.program.globals:
                self.issues.append(_make_issue(
                    "global_state", decl.line, "<global>", decl.name))
        functions = self.program.functions
        targets = [functions[self.top]] if self.top and self.top in functions \
            else list(functions.values())
        self._check_recursion(functions)
        for func in targets:
            self._check_function(func)
        return CompatReport(self.issues)

    def _check_recursion(self, functions: dict[str, CFunction]) -> None:
        calls: dict[str, set[str]] = {}
        for name, func in functions.items():
            called = {e.func for stmt in walk_stmts(func.body)
                      for expr in stmt_exprs(stmt)
                      for e in walk_exprs(expr) if type(e) is CCall}
            calls[name] = called & set(functions)

        # DFS cycle detection.
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {name: WHITE for name in functions}
        flagged: set[str] = set()

        def visit(name: str, path: list[str]) -> None:
            color[name] = GRAY
            for callee in sorted(calls.get(name, ())):
                if color[callee] == GRAY:
                    cycle_start = path.index(callee) if callee in path else 0
                    for member in path[cycle_start:] + [callee]:
                        flagged.add(member)
                elif color[callee] == WHITE:
                    visit(callee, path + [callee])
            color[name] = BLACK

        for name in functions:
            if color[name] == WHITE:
                visit(name, [name])
        for name in sorted(flagged):
            self.issues.append(_make_issue("recursion", functions[name].line, name))

    # -- per-function checks -------------------------------------------------------

    def _check_function(self, func: CFunction) -> None:
        for param in func.params:
            if param.ctype.is_pointer and not param.ctype.is_array:
                self.issues.append(_make_issue(
                    "unsized_pointer", func.line, func.name, param.name))
            if param.ctype.is_array and (param.ctype.array_size or 0) < 0:
                self.issues.append(_make_issue(
                    "unsized_pointer", func.line, func.name,
                    f"{param.name}[] has no size"))
        self._walk_stmt(func.body, func)

    def _walk_stmt(self, stmt: CStmt, func: CFunction) -> None:
        if isinstance(stmt, CBlock):
            for s in stmt.stmts:
                self._walk_stmt(s, func)
        elif isinstance(stmt, CDecl):
            if stmt.ctype.is_pointer:
                # Pointer locals are only OK if they hold malloc results —
                # which are themselves flagged; still flag arithmetic later.
                pass
            if stmt.init is not None:
                self._walk_expr(stmt.init, func, stmt.line)
        elif isinstance(stmt, CExprStmt):
            self._walk_expr(stmt.expr, func, stmt.line)
        elif isinstance(stmt, CIf):
            self._walk_expr(stmt.cond, func, stmt.line)
            self._walk_stmt(stmt.then, func)
            if stmt.other is not None:
                self._walk_stmt(stmt.other, func)
        elif isinstance(stmt, CFor):
            if stmt.init is not None:
                self._walk_stmt(stmt.init, func)
            if stmt.cond is not None:
                self._walk_expr(stmt.cond, func, stmt.line)
            if stmt.step is not None:
                self._walk_expr(stmt.step, func, stmt.line)
            if not loop_bound(stmt):
                self.issues.append(_make_issue("unbounded_loop", stmt.line,
                                               func.name))
            self._walk_stmt(stmt.body, func)
        elif isinstance(stmt, CWhile):
            self.issues.append(_make_issue(
                "unbounded_loop", stmt.line, func.name,
                "while loops have no static trip count"))
            self._walk_expr(stmt.cond, func, stmt.line)
            self._walk_stmt(stmt.body, func)
        elif isinstance(stmt, CReturn) and stmt.value is not None:
            self._walk_expr(stmt.value, func, stmt.line)

    def _walk_expr(self, expr: CExpr, func: CFunction, line: int) -> None:
        if isinstance(expr, CCall):
            if expr.func in ("malloc", "calloc", "free"):
                self.issues.append(_make_issue(expr.func, expr.line or line,
                                               func.name))
            elif expr.func in ("printf", "scanf", "puts", "fprintf"):
                self.issues.append(_make_issue("io_call", expr.line or line,
                                               func.name, expr.func))
            for a in expr.args:
                self._walk_expr(a, func, line)
        elif isinstance(expr, CBinary):
            if expr.op in ("/", "%") and not isinstance(expr.right, CNum):
                # An explicit divider-core allocation pragma accepts the cost.
                has_divider = any("allocation" in p and
                                  ("div" in p or "sdiv" in p)
                                  for p in func.pragmas)
                if not has_divider:
                    self.issues.append(_make_issue("dynamic_div", line,
                                                   func.name))
            if expr.op in ("+", "-") and self._is_pointer_operand(expr, func):
                self.issues.append(_make_issue("pointer_arith", line, func.name))
            self._walk_expr(expr.left, func, line)
            self._walk_expr(expr.right, func, line)
        elif isinstance(expr, CUnary):
            self._walk_expr(expr.operand, func, line)
        elif isinstance(expr, CTernary):
            for e in (expr.cond, expr.if_true, expr.if_false):
                self._walk_expr(e, func, line)
        elif isinstance(expr, CAssign):
            self._walk_expr(expr.target, func, line)
            self._walk_expr(expr.value, func, line)
        elif isinstance(expr, CIndex):
            self._walk_expr(expr.base, func, line)
            self._walk_expr(expr.index, func, line)
        elif isinstance(expr, CCast):
            self._walk_expr(expr.operand, func, line)

    def _is_pointer_operand(self, expr: CBinary, func: CFunction) -> bool:
        pointer_names = {p.name for p in func.params if p.ctype.is_pointer}
        for side in (expr.left, expr.right):
            if isinstance(side, CVar) and side.name in pointer_names:
                return True
        return False


def loop_bound(stmt: CFor) -> int | None:
    """Static trip count of ``for (i = c0; i < c1; i += c2)`` loops."""
    if stmt.init is None or stmt.cond is None or stmt.step is None:
        return None
    # init: i = c0 (decl or assignment)
    var: str | None = None
    start: int | None = None
    if isinstance(stmt.init, CDecl) and isinstance(stmt.init.init, CNum):
        var = stmt.init.name
        start = stmt.init.init.value
    elif isinstance(stmt.init, CExprStmt) and isinstance(stmt.init.expr, CAssign):
        a = stmt.init.expr
        if isinstance(a.target, CVar) and isinstance(a.value, CNum) and a.op == "=":
            var = a.target.name
            start = a.value.value
    if var is None or start is None:
        return None
    # cond: i < cN or i <= cN
    cond = stmt.cond
    if not (isinstance(cond, CBinary) and cond.op in ("<", "<=", ">", ">=")
            and isinstance(cond.left, CVar) and cond.left.name == var
            and isinstance(cond.right, CNum)):
        return None
    limit = cond.right.value
    # step: i++ / i += c / i = i + c
    step_amount: int | None = None
    step = stmt.step
    if isinstance(step, CUnary) and step.op in ("++", "--") \
            and isinstance(step.operand, CVar) and step.operand.name == var:
        step_amount = 1 if step.op == "++" else -1
    elif isinstance(step, CAssign) and isinstance(step.target, CVar) \
            and step.target.name == var:
        if step.op in ("+=", "-=") and isinstance(step.value, CNum):
            step_amount = step.value.value * (1 if step.op == "+=" else -1)
        elif step.op == "=" and isinstance(step.value, CBinary) \
                and step.value.op in ("+", "-") \
                and isinstance(step.value.left, CVar) \
                and step.value.left.name == var \
                and isinstance(step.value.right, CNum):
            step_amount = step.value.right.value * \
                (1 if step.value.op == "+" else -1)
    if not step_amount:
        return None
    if cond.op in ("<", "<=") and step_amount > 0:
        span = limit - start + (1 if cond.op == "<=" else 0)
        return max(0, -(-span // step_amount))
    if cond.op in (">", ">=") and step_amount < 0:
        span = start - limit + (1 if cond.op == ">=" else 0)
        return max(0, -(-span // -step_amount))
    return None


def check_compatibility(program: CProgram, top: str | None = None) -> CompatReport:
    """Run every HLS-compatibility check; see :class:`CompatReport`."""
    return CompatChecker(program, top).check()
