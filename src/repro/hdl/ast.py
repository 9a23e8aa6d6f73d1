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
