"""AST for the mini-C subset.

The node set deliberately includes constructs that are *not* HLS-compatible
(malloc, free, recursion, pointers, unbounded loops) — the compatibility
checker and the LLM repair loop need to see them to remove them, exactly as
in Fig. 2 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hdl.ast import preorder


# -- types -------------------------------------------------------------------


@dataclass(frozen=True)
class CType:
    base: str                 # 'int' | 'unsigned' | 'char' | 'void' | 'bool'
    is_pointer: bool = False
    array_size: int | None = None   # None = scalar / unsized

    @property
    def is_array(self) -> bool:
        return self.array_size is not None

    def __str__(self) -> str:
        s = self.base
        if self.is_pointer:
            s += "*"
        if self.array_size is not None:
            s += f"[{self.array_size}]"
        return s


INT = CType("int")
UNSIGNED = CType("unsigned")
VOID = CType("void")


# -- expressions ----------------------------------------------------------------


@dataclass(frozen=True)
class CExpr:
    pass


@dataclass(frozen=True)
class CNum(CExpr):
    value: int


@dataclass(frozen=True)
class CStr(CExpr):
    text: str


@dataclass(frozen=True)
class CVar(CExpr):
    name: str
    line: int = 0


@dataclass(frozen=True)
class CUnary(CExpr):
    op: str                  # - ! ~ * & ++ -- (pre)
    operand: CExpr
    postfix: bool = False    # for ++/--


@dataclass(frozen=True)
class CBinary(CExpr):
    op: str
    left: CExpr
    right: CExpr


@dataclass(frozen=True)
class CTernary(CExpr):
    cond: CExpr
    if_true: CExpr
    if_false: CExpr


@dataclass(frozen=True)
class CAssign(CExpr):
    op: str                  # '=', '+=', ...
    target: CExpr            # CVar | CIndex | CDeref
    value: CExpr
    line: int = 0


@dataclass(frozen=True)
class CIndex(CExpr):
    base: CExpr
    index: CExpr
    line: int = 0


@dataclass(frozen=True)
class CCall(CExpr):
    func: str
    args: tuple[CExpr, ...]
    line: int = 0


@dataclass(frozen=True)
class CCast(CExpr):
    ctype: CType
    operand: CExpr


@dataclass(frozen=True)
class CSizeof(CExpr):
    ctype: CType


# -- statements -------------------------------------------------------------------


@dataclass(frozen=True)
class CStmt:
    pass


@dataclass(frozen=True)
class CDecl(CStmt):
    ctype: CType
    name: str
    init: CExpr | None = None
    line: int = 0


@dataclass(frozen=True)
class CExprStmt(CStmt):
    expr: CExpr
    line: int = 0


@dataclass(frozen=True)
class CBlock(CStmt):
    stmts: tuple[CStmt, ...]


@dataclass(frozen=True)
class CIf(CStmt):
    cond: CExpr
    then: CStmt
    other: CStmt | None = None
    line: int = 0


@dataclass(frozen=True)
class CFor(CStmt):
    init: CStmt | None
    cond: CExpr | None
    step: CExpr | None
    body: CStmt
    pragmas: tuple[str, ...] = ()
    line: int = 0


@dataclass(frozen=True)
class CWhile(CStmt):
    cond: CExpr
    body: CStmt
    do_while: bool = False
    pragmas: tuple[str, ...] = ()
    line: int = 0


@dataclass(frozen=True)
class CReturn(CStmt):
    value: CExpr | None = None
    line: int = 0


@dataclass(frozen=True)
class CBreak(CStmt):
    line: int = 0


@dataclass(frozen=True)
class CContinue(CStmt):
    line: int = 0


@dataclass(frozen=True)
class CPragmaStmt(CStmt):
    text: str
    line: int = 0


# -- top level -------------------------------------------------------------------------


@dataclass(frozen=True)
class CParam:
    ctype: CType
    name: str


@dataclass(frozen=True)
class CFunction:
    name: str
    ret: CType
    params: tuple[CParam, ...]
    body: CBlock
    pragmas: tuple[str, ...] = ()
    line: int = 0


@dataclass
class CProgram:
    functions: dict[str, CFunction] = field(default_factory=dict)
    globals: list[CDecl] = field(default_factory=list)

    def add(self, func: CFunction) -> None:
        self.functions[func.name] = func

    def function(self, name: str) -> CFunction:
        if name not in self.functions:
            raise KeyError(f"function '{name}' not defined")
        return self.functions[name]


# -- traversal -------------------------------------------------------------------------

# Child fields of each node class, in visiting order (DESIGN.md §19).  A
# field holds one node, None, or a tuple of nodes.
_EXPR_FIELDS: dict[type, tuple[str, ...]] = {
    CUnary: ("operand",), CBinary: ("left", "right"),
    CTernary: ("cond", "if_true", "if_false"), CAssign: ("target", "value"),
    CIndex: ("base", "index"), CCall: ("args",), CCast: ("operand",),
}
_STMT_FIELDS: dict[type, tuple[str, ...]] = {
    CBlock: ("stmts",), CIf: ("then", "other"), CFor: ("init", "body"),
    CWhile: ("body",),
}
# The expressions each statement holds itself.
_STMT_EXPRS: dict[type, tuple[str, ...]] = {
    CDecl: ("init",), CExprStmt: ("expr",), CIf: ("cond",),
    CFor: ("cond", "step"), CWhile: ("cond",), CReturn: ("value",),
}


def walk_exprs(expr: CExpr | None):
    """Yield ``expr`` and every sub-expression, pre-order."""
    return preorder(expr, _EXPR_FIELDS)


def walk_stmts(stmt: CStmt | None):
    """Yield ``stmt`` and every nested statement, pre-order (a ``for``
    loop's init statement before its body)."""
    return preorder(stmt, _STMT_FIELDS)


def stmt_exprs(stmt: CStmt):
    """Yield the expressions ``stmt`` holds itself, not those of nested
    statements."""
    for name in _STMT_EXPRS.get(type(stmt), ()):
        expr = getattr(stmt, name)
        if expr is not None:
            yield expr
