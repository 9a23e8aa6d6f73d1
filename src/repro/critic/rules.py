"""Stage-one critic: deterministic rule validators.

Each rule reuses existing toolchain machinery (`repro.hdl` parse/lint,
declared-width tables) and maps every hit onto one taxonomy label from
:mod:`repro.critic.verdict`:

========== =====================================================
label      rule
========== =====================================================
syntax     candidate does not parse
lint       blocking lint diagnostic (undeclared / multiple drivers)
width      declared-width mismatch (assignment or ternary arms)
xprop      net read in logic but never driven (permanent ``x``)
vacuity    comparison with structurally identical operands, or a
           malformed assertion/expectation literal
dead-reset register only ever written under reset
trojan     rare-trigger corruption mux on an existing signal
pragma     HLS pragma outside the synthesizable subset
========== =====================================================

All rules are pure functions of the candidate text — no simulation, no
randomness — which is what makes the verdict replayable and
byte-identical across serial and parallel runs.
"""

from __future__ import annotations

import itertools
import re

from ..hdl import ast as A
from ..hdl import parse
from ..hdl.errors import HdlError
from ..hdl.lint import (_decl_widths, _expr_width, lint_module,
                        module_reads_writes)
from ..hls.pragmas import parse_pragma
from .verdict import (ACCEPT, TAX_DEAD_RESET, TAX_LINT, TAX_PRAGMA,
                      TAX_SYNTAX, TAX_TROJAN, TAX_VACUITY, TAX_WIDTH,
                      TAX_XPROP, CriticFailure, Verdict)

# Lint codes severe enough to reject a candidate outright.  The softer
# style codes (latch inference, unused nets, ...) stay advisory: they are
# threaded into refine feedback by the flows, not used for rejection.
_BLOCKING_LINT = {"LINT-UNDECL": TAX_LINT, "LINT-MULTIDRIVE": TAX_LINT,
                  "LINT-WIDTH": TAX_WIDTH}

_RESET_NAMES = ("rst", "reset", "rst_n", "rstn", "nrst", "arst", "arst_n")

# HLS pragma kinds the synthesizable subset accepts (see repro.hls).
LEGAL_PRAGMA_KINDS = frozenset(
    {"pipeline", "unroll", "array_partition", "inline", "dataflow",
     "interface", "loop_tripcount"})

# Well-formed expectation literal: what ``str(Logic)`` produces
# (``4'h3`` / ``2'b1x``) or a bare binary/decimal value.
_LITERAL_RE = re.compile(r"^(\d+'[bhd][0-9a-fA-FxXzZ_]+|\d+|[01xXzZ]+)$")


def _module_exprs(module: A.Module):
    """Every expression anywhere in ``module``, synthesizable items only.

    Initial blocks are testbench scaffolding — their comparisons are
    *meant* to check fixed expectations, so they are excluded from the
    structural rules to avoid false rejects on self-checking benches.
    """
    bodies = (A.walk_stmts(alw.body) for alw in module.always_blocks)
    for stmt in itertools.chain(module.assigns, *bodies):
        for expr in A.stmt_exprs(stmt, bounds=True):
            yield from A.walk_exprs(expr)


def _same_expr(a, b) -> bool:
    """Structural equality ignoring source locations."""
    if type(a) is not type(b):
        return False
    if isinstance(a, A.Identifier):
        return a.name == b.name
    if isinstance(a, A.Number):
        return (a.width, a.value, a.xmask) == (b.width, b.value, b.xmask)
    if isinstance(a, A.Unary):
        return a.op == b.op and _same_expr(a.operand, b.operand)
    if isinstance(a, A.Binary):
        return (a.op == b.op and _same_expr(a.left, b.left)
                and _same_expr(a.right, b.right))
    if isinstance(a, A.Index):
        return a.target == b.target and _same_expr(a.index, b.index)
    if isinstance(a, A.Slice):
        return (a.target == b.target and _same_expr(a.msb, b.msb)
                and _same_expr(a.lsb, b.lsb))
    return False


def _is_reset_cond(cond) -> bool:
    from ..hdl.elaborate import _expr_reads
    reads: set[str] = set()
    _expr_reads(cond, reads)
    return any(name.lower() in _RESET_NAMES for name in reads)


# -- individual rules ---------------------------------------------------------


def _rule_lint(module: A.Module) -> list[CriticFailure]:
    out = []
    for warning in lint_module(module):
        taxonomy = _BLOCKING_LINT.get(warning.code)
        if taxonomy is not None:
            out.append(CriticFailure(taxonomy, warning.code, warning.message))
    return out


def _rule_ternary_width(module: A.Module) -> list[CriticFailure]:
    widths = _decl_widths(module)
    out = []
    for expr in _module_exprs(module):
        if not isinstance(expr, A.Ternary):
            continue
        w_true = _expr_width(expr.if_true, widths)
        w_false = _expr_width(expr.if_false, widths)
        if w_true is not None and w_false is not None and w_true != w_false:
            out.append(CriticFailure(
                TAX_WIDTH, "ternary-width",
                f"ternary arms are {w_true} and {w_false} bits wide"))
    return out


def _rule_xprop(module: A.Module) -> list[CriticFailure]:
    reads, writes = module_reads_writes(module)
    # Instance connections may drive a slice of a local net
    # (``inst i(.s(subbed[3:0]))``); count those names as driven too.
    for inst in module.instances:
        for _, expr in inst.connections:
            if isinstance(expr, (A.Slice, A.Index)):
                writes.add(expr.target)
    inputs = {p.name for p in module.ports if p.direction in ("input", "inout")}
    out = []
    for net in module.nets:
        if net.kind == "integer" or net.init is not None:
            continue
        if net.name in reads and net.name not in writes \
                and net.name not in inputs:
            out.append(CriticFailure(
                TAX_XPROP, "undriven-read",
                f"net '{net.name}' is read but never driven: "
                f"evaluates to x forever"))
    return out


def _rule_vacuity(module: A.Module) -> list[CriticFailure]:
    out = []
    for expr in _module_exprs(module):
        if isinstance(expr, A.Binary) \
                and expr.op in ("==", "!=", "<", "<=", ">", ">=") \
                and not isinstance(expr.left, A.Number) \
                and _same_expr(expr.left, expr.right):
            out.append(CriticFailure(
                TAX_VACUITY, "self-compare",
                f"comparison '{expr.op}' has structurally identical "
                f"operands: condition is constant"))
    return out


def _rule_dead_reset(module: A.Module) -> list[CriticFailure]:
    out = []
    for alw in module.always_blocks:
        if not alw.edges or all(kind == "any" for kind, _ in alw.edges):
            continue  # combinational: no registers here
        from ..hdl.elaborate import stmt_writes
        reset_writes: set[str] = set()
        live_writes: set[str] = set()

        def visit(stmt, under_reset: bool) -> None:
            if stmt is None:
                return
            if isinstance(stmt, A.If) and _is_reset_cond(stmt.cond):
                branch: set[str] = set()
                stmt_writes(stmt.then, branch)
                reset_writes.update(branch)
                visit(stmt.other, under_reset)
                return
            sink = reset_writes if under_reset else live_writes
            if isinstance(stmt, A.Assign):
                sink.add(stmt.target.name)
            elif isinstance(stmt, A.Block):
                for s in stmt.stmts:
                    visit(s, under_reset)
            elif isinstance(stmt, A.If):
                visit(stmt.then, under_reset)
                visit(stmt.other, under_reset)
            elif isinstance(stmt, A.Case):
                for item in stmt.items:
                    visit(item.body, under_reset)
            elif isinstance(stmt, (A.For, A.While, A.Repeat)):
                visit(stmt.body, under_reset)

        visit(alw.body, False)
        for name in sorted(reset_writes - live_writes):
            out.append(CriticFailure(
                TAX_DEAD_RESET, "dead-reset",
                f"register '{name}' is only ever written under reset"))
    return out


def _trojan_payload(base, other) -> bool:
    """Does ``other`` compute a corruption of the same signal as ``base``?"""
    if not isinstance(base, A.Identifier):
        return False
    if isinstance(other, A.Binary) and other.op in ("^", "~^"):
        operands = (other.left, other.right)
        return any(isinstance(o, A.Identifier) and o.name == base.name
                   for o in operands)
    if isinstance(other, A.Unary) and other.op == "~":
        return (isinstance(other.operand, A.Identifier)
                and other.operand.name == base.name)
    return False


def _rule_trojan(module: A.Module) -> list[CriticFailure]:
    widths = _decl_widths(module)
    out = []
    for expr in _module_exprs(module):
        if not isinstance(expr, A.Ternary):
            continue
        cond = expr.cond
        if not (isinstance(cond, A.Binary) and cond.op in ("==", "!=")):
            continue
        sides = (cond.left, cond.right)
        trigger = next((s for s in sides if isinstance(s, A.Identifier)), None)
        const = next((s for s in sides if isinstance(s, A.Number)), None)
        if trigger is None or const is None:
            continue
        width = widths.get(trigger.name) or (const.width if const.sized else 0)
        if width < 4:
            continue  # not a rare trigger: ordinary decode logic
        arms = ((expr.if_false, expr.if_true) if cond.op == "==" else
                (expr.if_true, expr.if_false))
        base, payload = arms
        if _trojan_payload(base, payload):
            out.append(CriticFailure(
                TAX_TROJAN, "rare-trigger-mux",
                f"signal '{base.name}' is corrupted when "
                f"'{trigger.name}' matches a {width}-bit constant"))
    return out


_RTL_RULES = (_rule_lint, _rule_ternary_width, _rule_xprop, _rule_vacuity,
              _rule_dead_reset, _rule_trojan)


# -- public entry points ------------------------------------------------------


def validate_rtl(source_text: str, module_name: str | None = None) -> Verdict:
    """Run every rule over one RTL candidate."""
    try:
        source = parse(source_text)
    except HdlError as exc:
        return Verdict(ok=False, failures=(
            CriticFailure(TAX_SYNTAX, "parse", str(exc)),))
    failures: list[CriticFailure] = []
    for name, module in source.modules.items():
        if module_name is not None and name != module_name:
            continue
        for rule in _RTL_RULES:
            failures.extend(rule(module))
    if failures:
        return Verdict(ok=False, failures=tuple(failures))
    return ACCEPT


def validate_pragmas(source_text: str) -> Verdict:
    """Check every ``#pragma HLS`` directive against the legal subset."""
    failures: list[CriticFailure] = []
    for line in source_text.splitlines():
        pragma = parse_pragma(line)
        if pragma is None:
            continue
        if pragma.kind.lower() not in LEGAL_PRAGMA_KINDS:
            failures.append(CriticFailure(
                TAX_PRAGMA, "illegal-pragma",
                f"'#pragma HLS {pragma.kind}' is outside the "
                f"synthesizable subset"))
    if failures:
        return Verdict(ok=False, failures=tuple(failures))
    return ACCEPT


def validate_expectation(value: str) -> CriticFailure | None:
    """Well-formedness of one expected-value literal (no ground truth).

    Assertion miners and testbench generators stringify simulated values;
    corruption shows up as literals no simulator could have printed
    (``4'h3_wrong``).  This checks only the *shape* of the literal — it
    never consults the reference design, so it cannot leak ground truth.
    """
    if _LITERAL_RE.match(value.strip()):
        return None
    return CriticFailure(
        TAX_VACUITY, "malformed-expectation",
        f"expected value '{value}' is not a well-formed logic literal")


def validate_assertion(stimulus: dict, expected: str) -> Verdict:
    """Sanity-check one mined assertion: non-vacuous, well-formed."""
    failures: list[CriticFailure] = []
    if not stimulus:
        failures.append(CriticFailure(
            TAX_VACUITY, "vacuous-assertion",
            "assertion constrains no input: trivially true"))
    failure = validate_expectation(expected)
    if failure is not None:
        failures.append(failure)
    if failures:
        return Verdict(ok=False, failures=tuple(failures))
    return ACCEPT
