"""Abstract syntax tree for the mini-Verilog subset.

The node set covers the synthesizable subset the paper's case studies
generate (combinational and clocked always blocks, continuous assigns,
hierarchical instantiation, parameters) plus the behavioural constructs
testbenches need (initial blocks, delays, loops, system tasks).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SourceLocation

# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Number(Expr):
    width: int
    value: int
    xmask: int = 0
    sized: bool = False


@dataclass(frozen=True)
class Identifier(Expr):
    name: str
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # ~ ! - & | ^ +
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Ternary(Expr):
    cond: Expr
    if_true: Expr
    if_false: Expr


@dataclass(frozen=True)
class Concat(Expr):
    parts: tuple[Expr, ...]


@dataclass(frozen=True)
class Replicate(Expr):
    count: Expr
    inner: Expr


@dataclass(frozen=True)
class Index(Expr):
    """Single-bit select ``sig[i]`` (index may be dynamic)."""

    target: str
    index: Expr
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class Slice(Expr):
    """Constant part select ``sig[msb:lsb]``."""

    target: str
    msb: Expr
    lsb: Expr
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class SystemCall(Expr):
    """System function used in expression position ($time, $random, ...)."""

    name: str
    args: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class FunctionCall(Expr):
    name: str
    args: tuple[Expr, ...]
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class StringLit(Expr):
    text: str


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Stmt:
    pass


@dataclass(frozen=True)
class LValue:
    """Assignment target: whole signal, bit select, or part select."""

    name: str
    index: Expr | None = None       # bit select (may be dynamic)
    msb: Expr | None = None         # part select bounds (constant)
    lsb: Expr | None = None
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class Assign(Stmt):
    target: LValue
    expr: Expr
    blocking: bool
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class Block(Stmt):
    stmts: tuple[Stmt, ...]


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    then: Stmt
    other: Stmt | None = None


@dataclass(frozen=True)
class CaseItem:
    # None labels = default arm.
    labels: tuple[Expr, ...] | None
    body: Stmt


@dataclass(frozen=True)
class Case(Stmt):
    subject: Expr
    items: tuple[CaseItem, ...]
    wildcard: bool = False  # casez


@dataclass(frozen=True)
class For(Stmt):
    init: Assign
    cond: Expr
    step: Assign
    body: Stmt


@dataclass(frozen=True)
class While(Stmt):
    cond: Expr
    body: Stmt


@dataclass(frozen=True)
class Repeat(Stmt):
    count: Expr
    body: Stmt


@dataclass(frozen=True)
class Delay(Stmt):
    amount: Expr
    then: Stmt | None = None


@dataclass(frozen=True)
class EventWait(Stmt):
    """``@(posedge clk)`` used as a statement inside initial blocks."""

    edges: tuple[tuple[str, str], ...]  # (edge-kind, signal); kind in posedge/negedge/any


@dataclass(frozen=True)
class SysTask(Stmt):
    name: str
    args: tuple[Expr, ...] = ()
    loc: SourceLocation | None = None


# --------------------------------------------------------------------------
# Module items
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Range:
    """Vector bounds ``[msb:lsb]`` as constant expressions."""

    msb: Expr
    lsb: Expr


@dataclass(frozen=True)
class Port:
    name: str
    direction: str        # input | output | inout
    rng: Range | None
    is_reg: bool = False
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class Net:
    name: str
    kind: str             # wire | reg | integer
    rng: Range | None
    init: Expr | None = None
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class Parameter:
    name: str
    default: Expr
    local: bool = False


@dataclass(frozen=True)
class ContinuousAssign:
    target: LValue
    expr: Expr
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class Always:
    # Sensitivity: [] means combinational star.
    edges: tuple[tuple[str, str], ...]
    body: Stmt
    loc: SourceLocation | None = None

    @property
    def is_star(self) -> bool:
        return not self.edges


@dataclass(frozen=True)
class Initial:
    body: Stmt
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class Function:
    name: str
    rng: Range | None
    args: tuple[tuple[str, Range | None], ...]
    locals: tuple[Net, ...]
    body: Stmt


@dataclass(frozen=True)
class Instance:
    module: str
    name: str
    connections: tuple[tuple[str | None, Expr | None], ...]  # (port name or None for positional, expr)
    param_overrides: tuple[tuple[str | None, Expr], ...] = ()
    loc: SourceLocation | None = None


@dataclass(frozen=True)
class Module:
    name: str
    ports: tuple[Port, ...]
    parameters: tuple[Parameter, ...] = ()
    nets: tuple[Net, ...] = ()
    assigns: tuple[ContinuousAssign, ...] = ()
    always_blocks: tuple[Always, ...] = ()
    initial_blocks: tuple[Initial, ...] = ()
    instances: tuple[Instance, ...] = ()
    functions: tuple[Function, ...] = ()
    loc: SourceLocation | None = None

    def port(self, name: str) -> Port:
        for p in self.ports:
            if p.name == name:
                return p
        raise KeyError(name)


@dataclass
class SourceFile:
    modules: dict[str, Module] = field(default_factory=dict)

    def add(self, module: Module) -> None:
        self.modules[module.name] = module


# --------------------------------------------------------------------------
# Traversal
# --------------------------------------------------------------------------

# Child fields of each node class, in visiting order (DESIGN.md §19).  A
# field holds one node, None, or a tuple of nodes.
_EXPR_FIELDS: dict[type, tuple[str, ...]] = {
    Unary: ("operand",), Binary: ("left", "right"),
    Ternary: ("cond", "if_true", "if_false"), Concat: ("parts",),
    Replicate: ("count", "inner"), Index: ("index",), Slice: ("msb", "lsb"),
    SystemCall: ("args",), FunctionCall: ("args",),
}
# ``CaseItem`` is walked through but not yielded.
_STMT_FIELDS: dict[type, tuple[str, ...]] = {
    Block: ("stmts",), If: ("then", "other"), Case: ("items",),
    CaseItem: ("body",), For: ("body",), While: ("body",),
    Repeat: ("body",), Delay: ("then",),
}
# The same, with a ``for`` loop's init and step assignments.
_STMT_FIELDS_HEADERS = {**_STMT_FIELDS, For: ("init", "step", "body")}


def preorder(node, fields: dict[type, tuple[str, ...]],
             kind: type = object):
    """Yield ``node`` and every node under it that is a ``kind``,
    pre-order; ``fields`` maps a class to its child fields.  The Verilog
    and the mini-C (:mod:`repro.hls.cast`) walkers share it."""
    todo = [node]
    while todo:
        node = todo.pop()
        if node is None:
            continue
        if isinstance(node, kind):
            yield node
        for name in reversed(fields.get(type(node), ())):
            child = getattr(node, name)
            if type(child) is tuple:
                todo.extend(reversed(child))
            else:
                todo.append(child)


def walk_exprs(expr: Expr | None):
    """Yield ``expr`` and every sub-expression, pre-order."""
    return preorder(expr, _EXPR_FIELDS)


def walk_stmts(stmt: Stmt | None, for_headers: bool = False):
    """Yield ``stmt`` and every nested statement, pre-order.

    A ``for`` loop's init and step assignments are visited (before its
    body) only with ``for_headers``: read and write sets need them, the
    linter's blocking-assignment checks and the critic do not.
    """
    return preorder(stmt, _STMT_FIELDS_HEADERS if for_headers
                    else _STMT_FIELDS, Stmt)


def stmt_exprs(stmt: Stmt | ContinuousAssign, bounds: bool = False):
    """Yield the expressions ``stmt`` holds itself, not those of nested
    statements: an assignment's value before its target's index, a case
    subject before every label.  A delay amount is not among them.

    With ``bounds``, an assignment also yields its target's part-select
    bounds.  They are constants, so read sets leave them out; the critic
    checks every expression.
    """
    t = type(stmt)
    if t is Assign or t is ContinuousAssign:
        yield stmt.expr
        target = stmt.target
        parts = (target.index, target.msb, target.lsb) if bounds \
            else (target.index,)
        for part in parts:
            if part is not None:
                yield part
    elif t is If or t is For or t is While:
        yield stmt.cond
    elif t is Case:
        yield stmt.subject
        for item in stmt.items:
            yield from item.labels or ()
    elif t is Repeat:
        yield stmt.count
    elif t is SysTask:
        yield from stmt.args


def has_timing(stmt: Stmt | None) -> bool:
    """Does ``stmt`` contain a delay or an event wait?"""
    return any(isinstance(s, (Delay, EventWait)) for s in walk_stmts(stmt))
