"""Analytic HLS scheduling and resource model.

Estimates latency (cycles), initiation intervals and resource usage for a
mini-C kernel under its pragmas — the QoR numbers the PPA-optimization stage
iterates on.  The model is a classical list-scheduling approximation:

* every operation class has a latency and a resource kind,
* an unpragma'd loop runs its body sequentially every iteration,
* ``unroll factor=F`` divides trip count and multiplies resources,
* ``pipeline II=k`` overlaps iterations: ``fill + (trips-1) * II`` cycles,
  with II inflated to the loop-carried dependency distance when the body
  has a feedback chain (the same dependency HLSTester later exploits).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cast import (CAssign, CBinary, CBlock, CCall, CDecl, CExpr, CExprStmt,
                   CFor, CIf, CIndex, CProgram, CReturn, CStmt, CTernary,
                   CUnary, CWhile)
from .compat import loop_bound
from .interp import carried_vars
from .pragmas import pipeline_ii, unroll_factor

# Operation latencies in cycles (loosely Vitis-like defaults).
_OP_LATENCY = {"add": 1, "mul": 3, "div": 18, "mem": 2, "logic": 1, "cmp": 1}

_WHILE_ASSUMED_TRIPS = 64


@dataclass
class OpCounts:
    add: int = 0
    mul: int = 0
    div: int = 0
    mem: int = 0
    logic: int = 0
    cmp: int = 0

    def merged(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(*(getattr(self, f) + getattr(other, f)
                          for f in ("add", "mul", "div", "mem", "logic", "cmp")))

    def scaled(self, factor: int) -> "OpCounts":
        return OpCounts(*(getattr(self, f) * factor
                          for f in ("add", "mul", "div", "mem", "logic", "cmp")))

    @property
    def total(self) -> int:
        return self.add + self.mul + self.div + self.mem + self.logic + self.cmp

    def body_latency(self) -> int:
        """Approximate critical-path latency of one body execution."""
        weighted = (self.add * _OP_LATENCY["add"] + self.mul * _OP_LATENCY["mul"]
                    + self.div * _OP_LATENCY["div"] + self.mem * _OP_LATENCY["mem"]
                    + self.logic * _OP_LATENCY["logic"]
                    + self.cmp * _OP_LATENCY["cmp"])
        # Roughly half the ops are on the critical path.
        return max(1, weighted // 2 + 1)


@dataclass
class ScheduleReport:
    function: str
    latency_cycles: int
    ops: OpCounts
    resources: dict[str, int] = field(default_factory=dict)
    loop_details: list[dict] = field(default_factory=list)
    clock_ns: float = 10.0

    @property
    def runtime_us(self) -> float:
        return self.latency_cycles * self.clock_ns / 1000.0

    @property
    def dsp_count(self) -> int:
        return self.resources.get("mul", 0) * 1 + self.resources.get("div", 0) * 4

    @property
    def area_score(self) -> float:
        r = self.resources
        return (r.get("add", 0) * 1.0 + r.get("mul", 0) * 6.0
                + r.get("div", 0) * 24.0 + r.get("mem", 0) * 2.0
                + r.get("logic", 0) * 0.5)

    def summary(self) -> str:
        return (f"{self.function}: latency={self.latency_cycles} cycles "
                f"({self.runtime_us:.2f}us @ {self.clock_ns}ns) "
                f"area={self.area_score:.0f} dsp={self.dsp_count}")


def _count_expr(expr: CExpr, counts: OpCounts) -> None:
    if isinstance(expr, CBinary):
        if expr.op in ("+", "-"):
            counts.add += 1
        elif expr.op == "*":
            counts.mul += 1
        elif expr.op in ("/", "%"):
            counts.div += 1
        elif expr.op in ("==", "!=", "<", "<=", ">", ">="):
            counts.cmp += 1
        else:
            counts.logic += 1
        _count_expr(expr.left, counts)
        _count_expr(expr.right, counts)
    elif isinstance(expr, CUnary):
        if expr.op in ("++", "--"):
            counts.add += 1
        elif expr.op in ("~", "!"):
            counts.logic += 1
        _count_expr(expr.operand, counts)
    elif isinstance(expr, CTernary):
        counts.logic += 1
        for e in (expr.cond, expr.if_true, expr.if_false):
            _count_expr(e, counts)
    elif isinstance(expr, CAssign):
        if expr.op != "=":
            _count_expr(CBinary(expr.op[:-1], expr.target, expr.value), counts)
        else:
            _count_expr(expr.value, counts)
        if isinstance(expr.target, CIndex):
            counts.mem += 1
            _count_expr(expr.target.index, counts)
    elif isinstance(expr, CIndex):
        counts.mem += 1
        _count_expr(expr.index, counts)
    elif isinstance(expr, CCall):
        for a in expr.args:
            _count_expr(a, counts)


class Scheduler:
    def __init__(self, program: CProgram, clock_ns: float = 10.0):
        self.program = program
        self.clock_ns = clock_ns
        self.loop_details: list[dict] = []
        self.resources: dict[str, int] = {}

    def schedule(self, function: str) -> ScheduleReport:
        func = self.program.function(function)
        self.loop_details = []
        self.resources = {}
        total_ops = OpCounts()
        latency = self._stmt_latency(func.body, total_ops, depth=0)
        self._bump_resources(total_ops, 1)
        return ScheduleReport(function, max(1, latency), total_ops,
                              dict(self.resources), list(self.loop_details),
                              self.clock_ns)

    def _bump_resources(self, ops: OpCounts, parallelism: int) -> None:
        for kind in ("add", "mul", "div", "mem", "logic"):
            needed = min(getattr(ops, kind), max(1, parallelism))
            if getattr(ops, kind) > 0:
                needed = max(1, needed)
            self.resources[kind] = max(self.resources.get(kind, 0), needed)

    def _stmt_latency(self, stmt: CStmt, ops: OpCounts, depth: int) -> int:
        if isinstance(stmt, CBlock):
            return sum(self._stmt_latency(s, ops, depth) for s in stmt.stmts)
        if isinstance(stmt, (CDecl,)):
            if stmt.init is not None:
                local = OpCounts()
                _count_expr(stmt.init, local)
                for f in ("add", "mul", "div", "mem", "logic", "cmp"):
                    setattr(ops, f, getattr(ops, f) + getattr(local, f))
                return local.body_latency()
            return 0
        if isinstance(stmt, CExprStmt):
            local = OpCounts()
            _count_expr(stmt.expr, local)
            for f in ("add", "mul", "div", "mem", "logic", "cmp"):
                setattr(ops, f, getattr(ops, f) + getattr(local, f))
            return local.body_latency()
        if isinstance(stmt, CIf):
            local = OpCounts()
            _count_expr(stmt.cond, local)
            ops.cmp += local.cmp
            then = self._stmt_latency(stmt.then, ops, depth)
            other = self._stmt_latency(stmt.other, ops, depth) \
                if stmt.other is not None else 0
            return 1 + max(then, other)
        if isinstance(stmt, CFor):
            return self._loop_latency(stmt, ops, depth,
                                      loop_bound(stmt) or _WHILE_ASSUMED_TRIPS)
        if isinstance(stmt, CWhile):
            return self._loop_latency(stmt, ops, depth, _WHILE_ASSUMED_TRIPS)
        if isinstance(stmt, CReturn):
            if stmt.value is not None:
                local = OpCounts()
                _count_expr(stmt.value, local)
                for f in ("add", "mul", "div", "mem", "logic", "cmp"):
                    setattr(ops, f, getattr(ops, f) + getattr(local, f))
                return local.body_latency()
            return 0
        return 0

    def _loop_latency(self, stmt, ops: OpCounts, depth: int, trips: int) -> int:
        body_ops = OpCounts()
        body_latency = self._stmt_latency(stmt.body, body_ops, depth + 1)
        body_latency = max(body_latency, body_ops.body_latency())
        ii = pipeline_ii(stmt.pragmas)
        factor = min(unroll_factor(stmt.pragmas), max(1, trips))
        carried = self._has_carried_dependency(stmt)

        effective_trips = max(1, -(-trips // factor))
        self._bump_resources(body_ops.scaled(factor), factor)
        for f in ("add", "mul", "div", "mem", "logic", "cmp"):
            setattr(ops, f, getattr(ops, f) + getattr(body_ops, f) * trips)

        if ii is not None:
            # Loop-carried dependencies force the II up to the body latency.
            achieved_ii = max(ii, body_latency if carried else ii)
            latency = body_latency + max(0, effective_trips - 1) * achieved_ii
            self.loop_details.append({
                "line": stmt.line, "trips": trips, "unroll": factor,
                "requested_ii": ii, "achieved_ii": achieved_ii,
                "body_latency": body_latency, "latency": latency,
                "carried_dependency": carried})
            return latency + 2  # loop entry/exit overhead
        latency = effective_trips * (body_latency + 1)
        self.loop_details.append({
            "line": stmt.line, "trips": trips, "unroll": factor,
            "requested_ii": None, "achieved_ii": None,
            "body_latency": body_latency, "latency": latency,
            "carried_dependency": carried})
        return latency + 2

    def _has_carried_dependency(self, stmt) -> bool:
        # The interpreter's read/write analysis, minus the loop counter.
        loop_var: set[str] = set()
        if isinstance(stmt, CFor) and isinstance(stmt.init, CDecl):
            loop_var.add(stmt.init.name)
        return bool(carried_vars(stmt.body) - loop_var)


def estimate_schedule(program: CProgram, function: str,
                      clock_ns: float = 10.0) -> ScheduleReport:
    """Latency/resource estimate for one kernel under its current pragmas."""
    return Scheduler(program, clock_ns).schedule(function)
