"""Backward slicing on mini-C kernels — stage 2 of HLSTester (Fig. 3).

Computes the set of *key variables* that can influence the slicing criterion
(the return value and any array parameters written by the kernel), via a
fixed-point over data and control dependencies.  Instrumentation (stage 3)
then only monitors these variables, keeping spectra small.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cast import (CAssign, CBinary, CBlock, CCall, CCast, CDecl, CExpr,
                   CExprStmt, CFor, CFunction, CIf, CIndex, CProgram,
                   CReturn, CStmt, CTernary, CUnary, CVar, CWhile)


@dataclass
class SliceResult:
    criterion: set[str]
    key_variables: set[str] = field(default_factory=set)
    relevant_lines: set[int] = field(default_factory=set)


def _expr_vars(expr: CExpr | None, out: set[str]) -> None:
    if expr is None:
        return
    if isinstance(expr, CVar):
        out.add(expr.name)
    elif isinstance(expr, CBinary):
        _expr_vars(expr.left, out)
        _expr_vars(expr.right, out)
    elif isinstance(expr, CUnary):
        _expr_vars(expr.operand, out)
    elif isinstance(expr, CTernary):
        for e in (expr.cond, expr.if_true, expr.if_false):
            _expr_vars(e, out)
    elif isinstance(expr, CAssign):
        _expr_vars(expr.target, out)
        _expr_vars(expr.value, out)
    elif isinstance(expr, CIndex):
        _expr_vars(expr.base, out)
        _expr_vars(expr.index, out)
    elif isinstance(expr, CCall):
        for a in expr.args:
            _expr_vars(a, out)
    elif isinstance(expr, CCast):
        _expr_vars(expr.operand, out)


@dataclass
class _Assignment:
    target: str
    sources: set[str]
    controls: set[str]   # variables in enclosing branch/loop conditions
    line: int


def _collect_assignments(stmt: CStmt, controls: set[str],
                         out: list[_Assignment]) -> None:
    if isinstance(stmt, CBlock):
        for s in stmt.stmts:
            _collect_assignments(s, controls, out)
    elif isinstance(stmt, CDecl):
        if stmt.init is not None:
            sources: set[str] = set()
            _expr_vars(stmt.init, sources)
            out.append(_Assignment(stmt.name, sources, set(controls), stmt.line))
    elif isinstance(stmt, CExprStmt):
        _collect_expr_assignments(stmt.expr, controls, out, stmt.line)
    elif isinstance(stmt, CIf):
        cond_vars: set[str] = set()
        _expr_vars(stmt.cond, cond_vars)
        inner = controls | cond_vars
        _collect_assignments(stmt.then, inner, out)
        if stmt.other is not None:
            _collect_assignments(stmt.other, inner, out)
    elif isinstance(stmt, CFor):
        cond_vars = set()
        _expr_vars(stmt.cond, cond_vars)
        inner = controls | cond_vars
        if stmt.init is not None:
            _collect_assignments(stmt.init, controls, out)
        if stmt.step is not None:
            _collect_expr_assignments(stmt.step, inner, out, stmt.line)
        _collect_assignments(stmt.body, inner, out)
    elif isinstance(stmt, CWhile):
        cond_vars = set()
        _expr_vars(stmt.cond, cond_vars)
        _collect_assignments(stmt.body, controls | cond_vars, out)


def _collect_expr_assignments(expr: CExpr, controls: set[str],
                              out: list[_Assignment], line: int) -> None:
    if isinstance(expr, CAssign):
        sources: set[str] = set()
        _expr_vars(expr.value, sources)
        if expr.op != "=":
            _expr_vars(expr.target, sources)
        if isinstance(expr.target, CVar):
            out.append(_Assignment(expr.target.name, sources, set(controls),
                                   line))
        elif isinstance(expr.target, CIndex) and isinstance(expr.target.base,
                                                            CVar):
            idx_vars: set[str] = set()
            _expr_vars(expr.target.index, idx_vars)
            out.append(_Assignment(expr.target.base.name,
                                   sources | idx_vars, set(controls), line))
        _collect_expr_assignments(expr.value, controls, out, line)
    elif isinstance(expr, CUnary) and expr.op in ("++", "--"):
        if isinstance(expr.operand, CVar):
            out.append(_Assignment(expr.operand.name, {expr.operand.name},
                                   set(controls), line))
    elif isinstance(expr, CBinary):
        _collect_expr_assignments(expr.left, controls, out, line)
        _collect_expr_assignments(expr.right, controls, out, line)
    elif isinstance(expr, CCall):
        for a in expr.args:
            _collect_expr_assignments(a, controls, out, line)


def _collect_returns(stmt: CStmt, out: set[str]) -> None:
    if isinstance(stmt, CBlock):
        for s in stmt.stmts:
            _collect_returns(s, out)
    elif isinstance(stmt, CReturn):
        _expr_vars(stmt.value, out)
    elif isinstance(stmt, CIf):
        _collect_returns(stmt.then, out)
        if stmt.other is not None:
            _collect_returns(stmt.other, out)
    elif isinstance(stmt, (CFor, CWhile)):
        _collect_returns(stmt.body, out)


def backward_slice(program: CProgram, function: str,
                   criterion: set[str] | None = None) -> SliceResult:
    """Key variables influencing the kernel's observable outputs."""
    func = program.function(function)
    if criterion is None:
        criterion = set()
        _collect_returns(func.body, criterion)
        # Output arrays: any array/pointer parameter counts as observable.
        for param in func.params:
            if param.ctype.is_array or param.ctype.is_pointer:
                criterion.add(param.name)

    assignments: list[_Assignment] = []
    _collect_assignments(func.body, set(), assignments)

    key = set(criterion)
    lines: set[int] = set()
    changed = True
    while changed:
        changed = False
        for assign in assignments:
            if assign.target in key:
                new = (assign.sources | assign.controls) - key
                if new:
                    key |= new
                    changed = True
                if assign.line not in lines:
                    lines.add(assign.line)
                    changed = True
    result = SliceResult(criterion=set(criterion), key_variables=key,
                         relevant_lines=lines)
    return result
