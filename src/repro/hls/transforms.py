"""Source-to-source repair templates for HLS incompatibilities.

This is the "external correction-template library" of the paper's Fig. 2:
each template carries retrieval text (what the RAG index embeds), an
applicability predicate keyed on :class:`HlsIssue` codes, and an AST
transformation.  The simulated LLM *applies* templates; whether the right
template is retrieved (RAG on/off) and whether the application succeeds
(model capability) are controlled upstream in ``repro.hls.repair``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from .cast import (CAssign, CBinary, CBlock, CBreak, CCall, CDecl, CExpr,
                   CExprStmt, CFor, CFunction, CIf, CIndex, CNum, CParam,
                   CProgram, CReturn, CStmt, CType, CUnary, CVar, CWhile)
from .compat import HlsIssue

DEFAULT_ARRAY_DEPTH = 64
WHILE_LOOP_BUDGET = 1024


@dataclass
class TransformOutcome:
    applied: bool
    program: CProgram
    note: str = ""


Transform = Callable[[CProgram, HlsIssue], TransformOutcome]


@dataclass(frozen=True)
class RepairTemplate:
    """One entry of the correction-template library."""

    template_id: str
    issue_codes: tuple[str, ...]
    retrieval_text: str          # embedded by the RAG retriever
    description: str
    apply: Transform


# --------------------------------------------------------------------------
# Generic AST rewriting helpers
# --------------------------------------------------------------------------


def map_stmt(stmt: CStmt, fn: Callable[[CStmt], CStmt | None]) -> CStmt | None:
    """Bottom-up statement rewrite; fn returning None deletes the statement."""
    if isinstance(stmt, CBlock):
        new_stmts = []
        for s in stmt.stmts:
            mapped = map_stmt(s, fn)
            if mapped is not None:
                new_stmts.append(mapped)
        stmt = CBlock(tuple(new_stmts))
    elif isinstance(stmt, CIf):
        then = map_stmt(stmt.then, fn) or CBlock(())
        other = map_stmt(stmt.other, fn) if stmt.other is not None else None
        stmt = dataclasses.replace(stmt, then=then, other=other)
    elif isinstance(stmt, CFor):
        body = map_stmt(stmt.body, fn) or CBlock(())
        init = map_stmt(stmt.init, fn) if stmt.init is not None else None
        stmt = dataclasses.replace(stmt, body=body, init=init)
    elif isinstance(stmt, CWhile):
        body = map_stmt(stmt.body, fn) or CBlock(())
        stmt = dataclasses.replace(stmt, body=body)
    return fn(stmt)


def rewrite_function(program: CProgram, name: str,
                     fn: Callable[[CFunction], CFunction]) -> CProgram:
    out = CProgram()
    out.globals = list(program.globals)
    for fname, func in program.functions.items():
        out.add(fn(func) if fname == name else func)
    return out


def _const_malloc_size(expr: CExpr) -> int | None:
    """Extract N from malloc(N * sizeof(int)) / malloc(CONST)."""
    if not (isinstance(expr, CCall) and expr.func in ("malloc", "calloc")):
        return None
    arg = expr.args[0]
    if isinstance(arg, CNum):
        return max(1, arg.value // 4) if expr.func == "malloc" else arg.value
    if isinstance(arg, CBinary) and arg.op == "*":
        sides = [arg.left, arg.right]
        nums = [s.value for s in sides if isinstance(s, CNum)]
        if len(nums) == 2:
            return nums[0]  # N * sizeof-ish constant
        if len(nums) == 1:
            return nums[0]
    return None


# --------------------------------------------------------------------------
# Template: malloc -> static array
# --------------------------------------------------------------------------


def _apply_malloc_to_static(program: CProgram, issue: HlsIssue) -> TransformOutcome:
    changed = False
    converted: set[str] = set()

    def rewrite(func: CFunction) -> CFunction:
        nonlocal changed

        def visit(stmt: CStmt) -> CStmt | None:
            nonlocal changed
            if isinstance(stmt, CDecl) and stmt.ctype.is_pointer \
                    and stmt.init is not None:
                size = _const_malloc_size(stmt.init)
                if size is not None:
                    changed = True
                    converted.add(stmt.name)
                    return CDecl(CType(stmt.ctype.base, False, size),
                                 stmt.name, None, stmt.line)
            if isinstance(stmt, CExprStmt) and isinstance(stmt.expr, CAssign) \
                    and isinstance(stmt.expr.target, CVar):
                size = _const_malloc_size(stmt.expr.value)
                if size is not None:
                    changed = True
                    converted.add(stmt.expr.target.name)
                    return CDecl(CType("int", False, size),
                                 stmt.expr.target.name, None, stmt.line)
            if isinstance(stmt, CExprStmt) and isinstance(stmt.expr, CCall) \
                    and stmt.expr.func == "free":
                arg = stmt.expr.args[0] if stmt.expr.args else None
                if isinstance(arg, CVar) and arg.name in converted:
                    changed = True
                    return None  # free of a now-static array: delete
                changed = True
                return None  # any free in a kernel must go
            return stmt

        body = map_stmt(func.body, visit)
        assert isinstance(body, CBlock)
        return dataclasses.replace(func, body=body)

    new = rewrite_function(program, issue.function, rewrite)
    if not changed:
        return TransformOutcome(False, program,
                                "no statically-sized malloc found to convert")
    return TransformOutcome(True, new,
                            "converted dynamic allocation to static array")


# --------------------------------------------------------------------------
# Template: remove I/O calls
# --------------------------------------------------------------------------


def _apply_remove_io(program: CProgram, issue: HlsIssue) -> TransformOutcome:
    changed = False

    def rewrite(func: CFunction) -> CFunction:
        nonlocal changed

        def visit(stmt: CStmt) -> CStmt | None:
            nonlocal changed
            if isinstance(stmt, CExprStmt) and isinstance(stmt.expr, CCall) \
                    and stmt.expr.func in ("printf", "puts", "fprintf", "scanf"):
                changed = True
                return None
            return stmt

        body = map_stmt(func.body, visit)
        assert isinstance(body, CBlock)
        return dataclasses.replace(func, body=body)

    new = rewrite_function(program, issue.function, rewrite)
    if not changed:
        return TransformOutcome(False, program, "no I/O call found")
    return TransformOutcome(True, new, "removed I/O calls from kernel")


# --------------------------------------------------------------------------
# Template: while -> bounded for
# --------------------------------------------------------------------------


def _apply_while_to_bounded(program: CProgram, issue: HlsIssue) -> TransformOutcome:
    changed = False
    guard_counter = [0]

    def rewrite(func: CFunction) -> CFunction:
        nonlocal changed

        def visit(stmt: CStmt) -> CStmt | None:
            nonlocal changed
            if isinstance(stmt, CWhile) and not stmt.do_while:
                changed = True
                guard_counter[0] += 1
                guard = f"_hls_guard{guard_counter[0]}"
                exit_check = CIf(CUnary("!", stmt.cond), CBlock((CBreak(),)),
                                 None, stmt.line)
                inner = stmt.body.stmts if isinstance(stmt.body, CBlock) \
                    else (stmt.body,)
                body = CBlock((exit_check,) + tuple(inner))
                return CFor(
                    init=CDecl(CType("int"), guard, CNum(0), stmt.line),
                    cond=CBinary("<", CVar(guard), CNum(WHILE_LOOP_BUDGET)),
                    step=CAssign("+=", CVar(guard), CNum(1)),
                    body=body,
                    pragmas=stmt.pragmas,
                    line=stmt.line,
                )
            return stmt

        body = map_stmt(func.body, visit)
        assert isinstance(body, CBlock)
        return dataclasses.replace(func, body=body)

    new = rewrite_function(program, issue.function, rewrite)
    if not changed:
        return TransformOutcome(False, program, "no while loop found")
    return TransformOutcome(
        True, new, f"bounded while loop with a {WHILE_LOOP_BUDGET}-iteration budget")


# --------------------------------------------------------------------------
# Template: tail recursion -> loop
# --------------------------------------------------------------------------


def _apply_tail_recursion(program: CProgram, issue: HlsIssue) -> TransformOutcome:
    func = program.functions.get(issue.function)
    if func is None:
        return TransformOutcome(False, program, "function not found")
    # Recognize:  if (<cond>) return <base>;  ... return f(<args>);
    stmts = func.body.stmts
    if not stmts or not isinstance(stmts[-1], CReturn):
        return TransformOutcome(False, program, "no trailing return")
    tail = stmts[-1]
    if not (isinstance(tail.value, CCall) and tail.value.func == func.name):
        return TransformOutcome(
            False, program,
            "recursive call is not in tail position; template does not apply")
    if len(tail.value.args) != len(func.params):
        return TransformOutcome(False, program, "arity mismatch in tail call")

    # Loop: while (1) { <body without tail>; <params = new args>; }
    rebind: list[CStmt] = []
    temps: list[CStmt] = []
    for i, (param, arg) in enumerate(zip(func.params, tail.value.args)):
        tmp = f"_t{i}"
        temps.append(CDecl(param.ctype, tmp, arg, tail.line))
        rebind.append(CExprStmt(CAssign("=", CVar(param.name), CVar(tmp)),
                                tail.line))
    loop_body = CBlock(tuple(stmts[:-1]) + tuple(temps) + tuple(rebind))
    guard = "_hls_iter"
    loop = CFor(
        init=CDecl(CType("int"), guard, CNum(0), func.line),
        cond=CBinary("<", CVar(guard), CNum(WHILE_LOOP_BUDGET)),
        step=CAssign("+=", CVar(guard), CNum(1)),
        body=loop_body,
        line=func.line,
    )
    new_body = CBlock((loop, CReturn(CNum(0), func.line)))
    new_func = dataclasses.replace(func, body=new_body)
    return TransformOutcome(
        True, rewrite_function(program, func.name, lambda f: new_func),
        "converted tail recursion to an iteration-bounded loop")


# --------------------------------------------------------------------------
# Template: unsized pointer param -> sized array param
# --------------------------------------------------------------------------


def _apply_bound_pointer(program: CProgram, issue: HlsIssue) -> TransformOutcome:
    func = program.functions.get(issue.function)
    if func is None:
        return TransformOutcome(False, program, "function not found")
    depth = DEFAULT_ARRAY_DEPTH
    for pragma in func.pragmas:
        if "depth" in pragma:
            for token in pragma.replace("=", " ").split():
                if token.isdigit():
                    depth = int(token)
    changed = False
    new_params: list[CParam] = []
    for param in func.params:
        if param.ctype.is_pointer and not param.ctype.is_array:
            new_params.append(CParam(CType(param.ctype.base, False, depth),
                                     param.name))
            changed = True
        elif param.ctype.is_array and (param.ctype.array_size or 0) < 0:
            new_params.append(CParam(CType(param.ctype.base, False, depth),
                                     param.name))
            changed = True
        else:
            new_params.append(param)
    if not changed:
        return TransformOutcome(False, program, "no unsized pointer parameter")
    new_func = dataclasses.replace(func, params=tuple(new_params))
    return TransformOutcome(
        True, rewrite_function(program, func.name, lambda f: new_func),
        f"bounded pointer parameters to depth {depth}")


# --------------------------------------------------------------------------
# Template: dynamic division -> divider-core pragma
# --------------------------------------------------------------------------


def _apply_allow_divider(program: CProgram, issue: HlsIssue) -> TransformOutcome:
    func = program.functions.get(issue.function)
    if func is None:
        return TransformOutcome(False, program, "function not found")
    pragma = "#pragma HLS allocation operation instances=sdiv limit=1"
    if pragma in func.pragmas:
        return TransformOutcome(False, program, "divider pragma already present")
    new_func = dataclasses.replace(func, pragmas=func.pragmas + (pragma,))
    return TransformOutcome(
        True, rewrite_function(program, func.name, lambda f: new_func),
        "allocated an explicit divider core via pragma")


# --------------------------------------------------------------------------
# Template: pointer arithmetic -> explicit indexing (annotation only)
# --------------------------------------------------------------------------


def _apply_pointer_arith(program: CProgram, issue: HlsIssue) -> TransformOutcome:
    func = program.functions.get(issue.function)
    if func is None:
        return TransformOutcome(False, program, "function not found")

    changed = False

    def visit(stmt: CStmt) -> CStmt | None:
        nonlocal changed

        def fix_expr(expr: CExpr) -> CExpr:
            nonlocal changed
            if isinstance(expr, CUnary) and expr.op == "*" \
                    and isinstance(expr.operand, CBinary) \
                    and expr.operand.op == "+":
                changed = True
                return CIndex(fix_expr(expr.operand.left),
                              fix_expr(expr.operand.right))
            if isinstance(expr, CBinary):
                return dataclasses.replace(expr, left=fix_expr(expr.left),
                                           right=fix_expr(expr.right))
            if isinstance(expr, CAssign):
                return dataclasses.replace(expr, target=fix_expr(expr.target),
                                           value=fix_expr(expr.value))
            if isinstance(expr, CUnary):
                return dataclasses.replace(expr, operand=fix_expr(expr.operand))
            if isinstance(expr, CIndex):
                return dataclasses.replace(expr, base=fix_expr(expr.base),
                                           index=fix_expr(expr.index))
            if isinstance(expr, CCall):
                return dataclasses.replace(
                    expr, args=tuple(fix_expr(a) for a in expr.args))
            return expr

        if isinstance(stmt, CExprStmt):
            return dataclasses.replace(stmt, expr=fix_expr(stmt.expr))
        if isinstance(stmt, CDecl) and stmt.init is not None:
            return dataclasses.replace(stmt, init=fix_expr(stmt.init))
        if isinstance(stmt, CReturn) and stmt.value is not None:
            return dataclasses.replace(stmt, value=fix_expr(stmt.value))
        if isinstance(stmt, CIf):
            return dataclasses.replace(stmt, cond=fix_expr(stmt.cond))
        return stmt

    def rewrite(func_in: CFunction) -> CFunction:
        body = map_stmt(func_in.body, visit)
        assert isinstance(body, CBlock)
        return dataclasses.replace(func_in, body=body)

    new = rewrite_function(program, issue.function, rewrite)
    if not changed:
        return TransformOutcome(False, program,
                                "no *(p + i) pattern found to rewrite")
    return TransformOutcome(True, new,
                            "rewrote pointer arithmetic as array indexing")


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------


TEMPLATES: tuple[RepairTemplate, ...] = (
    RepairTemplate(
        "malloc_to_static", ("HLS001",),
        "dynamic memory allocation malloc calloc free heap replace with "
        "static fixed-size array on-chip BRAM buffer",
        "Replace malloc/calloc with a statically sized local array and drop free().",
        _apply_malloc_to_static),
    RepairTemplate(
        "remove_io", ("HLS005",),
        "printf puts standard output logging debug print statement remove "
        "from synthesizable kernel",
        "Delete printf/puts calls; hardware kernels have no stdout.",
        _apply_remove_io),
    RepairTemplate(
        "while_to_bounded_for", ("HLS003",),
        "while loop unbounded trip count convert to for loop static bound "
        "iteration budget latency analysis",
        "Rewrite while loops as for loops with a static iteration budget.",
        _apply_while_to_bounded),
    RepairTemplate(
        "tail_recursion_to_loop", ("HLS002",),
        "recursion recursive call stack convert tail call to iterative loop",
        "Convert tail-recursive functions into bounded loops.",
        _apply_tail_recursion),
    RepairTemplate(
        "bound_pointer_param", ("HLS004",),
        "pointer parameter unknown size interface depth array dimension "
        "specify bound memory port",
        "Give pointer parameters an explicit array bound (interface depth).",
        _apply_bound_pointer),
    RepairTemplate(
        "allow_divider", ("HLS009",),
        "division modulo runtime divisor divider core allocation pragma "
        "resource sharing",
        "Allocate an explicit divider core for runtime division.",
        _apply_allow_divider),
    RepairTemplate(
        "pointer_arith_to_index", ("HLS006",),
        "pointer arithmetic increment offset dereference rewrite as array "
        "index subscript",
        "Rewrite *(p + i) as p[i].",
        _apply_pointer_arith),
)


def templates_for(code: str) -> list[RepairTemplate]:
    return [t for t in TEMPLATES if code in t.issue_codes]
