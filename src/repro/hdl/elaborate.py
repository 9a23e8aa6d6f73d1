"""Elaboration: resolve parameters and flatten hierarchy.

The output of elaboration is a :class:`Design` — a flat list of signals and
processes with fully-resolved hierarchical names.  Module instances are
flattened by cloning the child module's contents under a ``parent.child``
name prefix and stitching ports with continuous assignments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast as A
from .errors import ElaborationError
from .values import Logic

# --------------------------------------------------------------------------
# Constant expression evaluation (parameters, ranges, replication counts)
# --------------------------------------------------------------------------


def eval_const(expr: A.Expr, params: dict[str, int]) -> int:
    if isinstance(expr, A.Number):
        if expr.xmask:
            raise ElaborationError("X bits are not allowed in constant expressions")
        return expr.value
    if isinstance(expr, A.Identifier):
        if expr.name not in params:
            raise ElaborationError(f"'{expr.name}' is not a parameter or constant", expr.loc)
        return params[expr.name]
    if isinstance(expr, A.Unary):
        v = eval_const(expr.operand, params)
        return {
            "-": lambda x: -x, "+": lambda x: x, "~": lambda x: ~x,
            "!": lambda x: 0 if x else 1,
        }.get(expr.op, lambda x: (_ for _ in ()).throw(
            ElaborationError(f"unary '{expr.op}' not allowed in constant expression")))(v)
    if isinstance(expr, A.Binary):
        a = eval_const(expr.left, params)
        b = eval_const(expr.right, params)
        ops = {
            "+": a + b, "-": a - b, "*": a * b,
            "/": a // b if b else 0, "%": a % b if b else 0,
            "<<": a << b, ">>": a >> b, "**": a ** b,
            "&": a & b, "|": a | b, "^": a ^ b,
            "==": int(a == b), "!=": int(a != b),
            "<": int(a < b), "<=": int(a <= b), ">": int(a > b), ">=": int(a >= b),
            "&&": int(bool(a) and bool(b)), "||": int(bool(a) or bool(b)),
        }
        if expr.op not in ops:
            raise ElaborationError(f"binary '{expr.op}' not allowed in constant expression")
        return ops[expr.op]
    if isinstance(expr, A.Ternary):
        return (eval_const(expr.if_true, params) if eval_const(expr.cond, params)
                else eval_const(expr.if_false, params))
    raise ElaborationError(f"{type(expr).__name__} not allowed in constant expression")


# --------------------------------------------------------------------------
# Flat design data model
# --------------------------------------------------------------------------


@dataclass
class Signal:
    name: str          # flat hierarchical name
    width: int
    kind: str          # wire | reg | integer
    init: Logic | None = None
    is_port: bool = False
    direction: str = ""   # only for top-level ports


@dataclass
class Scope:
    """Per-instance name resolution for a cloned module body."""

    prefix: str
    names: dict[str, str] = field(default_factory=dict)     # local -> flat
    params: dict[str, int] = field(default_factory=dict)
    functions: dict[str, A.Function] = field(default_factory=dict)

    def resolve(self, local: str) -> str:
        flat = self.names.get(local)
        if flat is None:
            raise ElaborationError(f"undeclared identifier '{local}' in scope '{self.prefix or '<top>'}'")
        return flat


@dataclass
class Process:
    kind: str                       # 'assign' | 'always' | 'initial'
    scope: Scope
    body: A.Stmt | None = None
    target: A.LValue | None = None  # for continuous assigns
    expr: A.Expr | None = None
    edges: tuple[tuple[str, str], ...] = ()   # (edge kind, FLAT signal name)
    deps: frozenset[str] = frozenset()        # flat names that retrigger comb processes
    name: str = ""


@dataclass
class Design:
    top: str
    signals: dict[str, Signal] = field(default_factory=dict)
    processes: list[Process] = field(default_factory=list)

    def signal(self, name: str) -> Signal:
        return self.signals[name]


# --------------------------------------------------------------------------
# Read-set analysis (for @* and continuous-assign sensitivity)
# --------------------------------------------------------------------------


def _expr_reads(expr: A.Expr | None, out: set[str]) -> None:
    for e in A.walk_exprs(expr):
        t = type(e)
        if t is A.Identifier:
            out.add(e.name)
        elif t is A.Index or t is A.Slice:
            out.add(e.target)


def _stmt_reads(stmt: A.Stmt, out: set[str]) -> None:
    for s in A.walk_stmts(stmt, for_headers=True):
        for expr in A.stmt_exprs(s):
            _expr_reads(expr, out)


def stmt_writes(stmt: A.Stmt, out: set[str]) -> None:
    """Collect names assigned anywhere in ``stmt``."""
    out.update(s.target.name for s in A.walk_stmts(stmt, for_headers=True)
               if type(s) is A.Assign)


# --------------------------------------------------------------------------
# Elaborator
# --------------------------------------------------------------------------

MAX_HIER_DEPTH = 32


class Elaborator:
    def __init__(self, source: A.SourceFile):
        self.source = source
        self.design: Design | None = None

    def elaborate(self, top: str) -> Design:
        if top not in self.source.modules:
            raise ElaborationError(f"top module '{top}' not found")
        self.design = Design(top=top)
        module = self.source.modules[top]
        scope = self._instantiate(module, prefix="", overrides={}, depth=0)
        # Record top-level port metadata for the harness.
        for port in module.ports:
            flat = scope.resolve(port.name)
            sig = self.design.signals[flat]
            sig.is_port = True
            sig.direction = port.direction
        return self.design

    # -- per-instance cloning ------------------------------------------------

    def _range_width(self, rng: A.Range | None, params: dict[str, int]) -> int:
        if rng is None:
            return 1
        msb = eval_const(rng.msb, params)
        lsb = eval_const(rng.lsb, params)
        if lsb != 0:
            raise ElaborationError(f"only [msb:0] ranges are supported, got [{msb}:{lsb}]")
        if msb < 0:
            raise ElaborationError(f"negative range bound [{msb}:0]")
        return msb + 1

    def _instantiate(self, module: A.Module, prefix: str,
                     overrides: dict[str, int], depth: int) -> Scope:
        if depth > MAX_HIER_DEPTH:
            raise ElaborationError(
                f"hierarchy deeper than {MAX_HIER_DEPTH} (recursive instantiation of "
                f"'{module.name}'?)")
        design = self.design
        assert design is not None

        params: dict[str, int] = {}
        for p in module.parameters:
            if not p.local and p.name in overrides:
                params[p.name] = overrides[p.name]
            else:
                params[p.name] = eval_const(p.default, params)
        for name in overrides:
            if name not in params:
                raise ElaborationError(f"unknown parameter '{name}' on module '{module.name}'")

        scope = Scope(prefix=prefix, params=params)
        scope.functions = {f.name: f for f in module.functions}

        def flat(local: str) -> str:
            return f"{prefix}{local}" if not prefix else f"{prefix}.{local}"

        declared: set[str] = set()

        for port in module.ports:
            if not port.direction:
                raise ElaborationError(
                    f"port '{port.name}' of '{module.name}' has no direction declaration")
            if port.direction == "inout":
                raise ElaborationError("inout ports are not supported by this subset")
            width = self._range_width(port.rng, params)
            name = flat(port.name)
            kind = "reg" if port.is_reg else "wire"
            init = Logic.unknown(width) if kind == "reg" else None
            design.signals[name] = Signal(name, width, kind, init)
            scope.names[port.name] = name
            declared.add(port.name)

        wire_init_assigns: list[A.Net] = []
        for net in module.nets:
            if net.name in declared:
                # 'output reg q;' + 'reg q;' double declaration — tolerate wire/reg re-decl
                continue
            width = 32 if net.kind == "integer" else self._range_width(net.rng, params)
            name = flat(net.name)
            init = None
            if net.init is not None:
                try:
                    init = Logic.from_int(eval_const(net.init, params), width)
                except ElaborationError:
                    if net.kind == "wire":
                        # 'wire x = expr;' with a non-constant expression is a
                        # continuous assignment.
                        wire_init_assigns.append(net)
                        init = None
                    else:
                        raise
            elif net.kind in ("reg", "integer"):
                init = Logic.unknown(width)
            design.signals[name] = Signal(name, width, net.kind, init)
            scope.names[net.name] = name
            declared.add(net.name)

        for net in wire_init_assigns:
            deps0: set[str] = set()
            _expr_reads(net.init, deps0)
            flat_deps0 = frozenset(scope.names[d] for d in deps0
                                   if d in scope.names)
            design.processes.append(Process(
                kind="assign", scope=scope,
                target=A.LValue(net.name), expr=net.init, deps=flat_deps0,
                name=f"{prefix or module.name}:wireinit:{net.name}"))

        # Continuous assigns.
        for ca in module.assigns:
            deps: set[str] = set()
            for expr in A.stmt_exprs(ca):
                _expr_reads(expr, deps)
            flat_deps = frozenset(scope.names[d] for d in deps if d in scope.names)
            design.processes.append(Process(
                kind="assign", scope=scope, target=ca.target, expr=ca.expr,
                deps=flat_deps, name=f"{prefix or module.name}:assign:{ca.target.name}"))

        # Always blocks.
        for idx, alw in enumerate(module.always_blocks):
            if alw.is_star:
                reads: set[str] = set()
                _stmt_reads(alw.body, reads)
                writes: set[str] = set()
                stmt_writes(alw.body, writes)
                flat_deps = frozenset(scope.names[d] for d in reads - writes
                                      if d in scope.names)
                design.processes.append(Process(
                    kind="always", scope=scope, body=alw.body, edges=(),
                    deps=flat_deps, name=f"{prefix or module.name}:always*{idx}"))
            else:
                edges = []
                level = all(kind == "any" for kind, _ in alw.edges)
                for kind, sig in alw.edges:
                    if sig not in scope.names:
                        raise ElaborationError(
                            f"sensitivity signal '{sig}' not declared in '{module.name}'")
                    edges.append((kind, scope.names[sig]))
                if level:
                    design.processes.append(Process(
                        kind="always", scope=scope, body=alw.body, edges=(),
                        deps=frozenset(f for _, f in edges),
                        name=f"{prefix or module.name}:always@{idx}"))
                else:
                    design.processes.append(Process(
                        kind="always", scope=scope, body=alw.body,
                        edges=tuple(edges), deps=frozenset(),
                        name=f"{prefix or module.name}:always_ff{idx}"))

        for idx, ini in enumerate(module.initial_blocks):
            design.processes.append(Process(
                kind="initial", scope=scope, body=ini.body,
                name=f"{prefix or module.name}:initial{idx}"))

        # Child instances.
        for inst in module.instances:
            self._elaborate_instance(module, inst, scope, prefix, depth)

        return scope

    def _elaborate_instance(self, parent: A.Module, inst: A.Instance,
                            scope: Scope, prefix: str, depth: int) -> None:
        design = self.design
        assert design is not None
        if inst.module not in self.source.modules:
            raise ElaborationError(
                f"instance '{inst.name}' references unknown module '{inst.module}'", inst.loc)
        child = self.source.modules[inst.module]
        child_prefix = f"{prefix}.{inst.name}" if prefix else inst.name

        # Parameter overrides.
        overrides: dict[str, int] = {}
        nonlocal_params = [p for p in child.parameters if not p.local]
        for pos, (pname, pexpr) in enumerate(inst.param_overrides):
            value = eval_const(pexpr, scope.params)
            if pname is None:
                if pos >= len(nonlocal_params):
                    raise ElaborationError(
                        f"too many positional parameters for '{child.name}'", inst.loc)
                overrides[nonlocal_params[pos].name] = value
            else:
                overrides[pname] = value

        child_scope = self._instantiate(child, child_prefix, overrides, depth + 1)

        # Port connections.
        conns: list[tuple[A.Port, A.Expr | None]] = []
        if inst.connections and inst.connections[0][0] is None:
            if len(inst.connections) > len(child.ports):
                raise ElaborationError(
                    f"too many positional connections on '{inst.name}'", inst.loc)
            for port, (_, expr) in zip(child.ports, inst.connections):
                conns.append((port, expr))
        else:
            by_name = {p.name: p for p in child.ports}
            for pname, expr in inst.connections:
                if pname not in by_name:
                    raise ElaborationError(
                        f"module '{child.name}' has no port '{pname}'", inst.loc)
                conns.append((by_name[pname], expr))

        for port, expr in conns:
            if expr is None:
                continue  # unconnected
            child_flat = child_scope.resolve(port.name)
            if port.direction == "input":
                deps: set[str] = set()
                _expr_reads(expr, deps)
                flat_deps = frozenset(scope.names[d] for d in deps if d in scope.names)
                design.processes.append(Process(
                    kind="assign", scope=Scope(prefix, dict(scope.names), scope.params,
                                               scope.functions),
                    target=A.LValue(f"\0{child_flat}"), expr=expr, deps=flat_deps,
                    name=f"{child_prefix}:port_in:{port.name}"))
            else:  # output
                conn_scope = Scope(prefix, {}, scope.params, scope.functions)
                conn_scope.names["__src"] = child_flat
                if isinstance(expr, A.Identifier):
                    parent_flat = scope.resolve(expr.name)
                    target = A.LValue(f"\0{parent_flat}")
                elif isinstance(expr, A.Slice):
                    parent_flat = scope.resolve(expr.target)
                    msb = A.Number(32, eval_const(expr.msb, scope.params))
                    lsb = A.Number(32, eval_const(expr.lsb, scope.params))
                    target = A.LValue(f"\0{parent_flat}", None, msb, lsb)
                elif isinstance(expr, A.Index):
                    parent_flat = scope.resolve(expr.target)
                    idx = A.Number(32, eval_const(expr.index, scope.params))
                    target = A.LValue(f"\0{parent_flat}", idx)
                else:
                    raise ElaborationError(
                        f"output port '{port.name}' of '{inst.name}' must connect "
                        f"to a signal, bit-select, or constant part-select",
                        inst.loc)
                design.processes.append(Process(
                    kind="assign", scope=conn_scope, target=target,
                    expr=A.Identifier("__src"), deps=frozenset({child_flat}),
                    name=f"{child_prefix}:port_out:{port.name}"))


def elaborate(source: A.SourceFile, top: str) -> Design:
    return Elaborator(source).elaborate(top)
