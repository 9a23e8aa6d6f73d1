"""Compiled simulation fast path for elaborated designs.

:func:`compile_program` translates an elaborated :class:`Design` into
straight-line Python source — one function per combinational process, one
per clock-edge process, one generator per behavioural coroutine — operating
on plain ``int`` bit-planes instead of :class:`~repro.hdl.values.Logic`
objects.  :class:`CompiledSim` executes the generated module with exactly
the event simulator's scheduler semantics (active FIFO, NBA stratum,
time-ordered heap), so a run that completes is byte-identical to
:class:`~repro.hdl.simulator.Simulator` on the same design and seed.

Exactness rests on mirroring the value model, not approximating it: every
signal (and every expression temporary) is the pair ``(value, xmask)`` that
:class:`Logic` itself stores, kept in Logic's normal form (``value & xmask
== 0``).  Fully-defined operands take hand-lowered integer fast paths;
operands carrying X bits in the ops with non-trivial X algebra (bitwise,
shifts) are delegated back to :class:`Logic` at runtime (:func:`_xop2`), so
there is no hand-rolled X propagation to diverge.  The engine raises
:class:`XBail` only where the *event* engine would raise an error itself
(X write index, X repeat count, runaway zero-delay activity, …) — the
caller then re-runs the event simulator, which reproduces the
authoritative outcome.

Designs using constructs the compiler does not model (dynamic delays or
part-select bounds, user functions, timing controls inside edge-triggered
blocks) are rejected at compile time with :class:`UnsupportedDesign` — the
selector in ``run_testbench`` records the design as ineligible and keeps
using the event engine for it.
"""

from __future__ import annotations

import heapq
from collections import deque

from . import ast as A
from ..obs import get_metrics, get_tracer
from ..store import LruCache
from .compile import COMPILE_CACHE_CAPACITY
from .elaborate import Design, Process, Scope, eval_const
from .errors import ElaborationError
from .simulator import Simulator
from .values import Logic


class UnsupportedDesign(Exception):
    """Design uses a construct outside the compiled subset."""


class XBail(Exception):
    """Runtime escape hatch: the event engine would raise an error here
    (SimulationError or ValueError).  The caller re-runs the event
    simulator to reproduce the authoritative outcome."""


class _CFinish(Exception):
    """$finish/$stop unwind inside generated code."""


_MAX_STEPS = 200_000        # mirrors simulator._MAX_STEPS_PER_SLOT
_MAX_WIDTH = 1 << 16        # refuse absurd widths instead of building them

_EDGE_KIND = {"posedge": 0, "negedge": 1, "any": 2}


# --------------------------------------------------------------------------
# Runtime helpers injected into the generated module's namespace
# --------------------------------------------------------------------------


def _xop2(method: str, wa: int, av: int, ax: int,
          wb: int, bv: int, bx: int) -> tuple[int, int]:
    """Evaluate a binary :class:`Logic` op with an X operand by delegating
    to the reference implementation (keeps partial-X semantics
    definitionally identical to the event engine's)."""
    r = getattr(Logic(wa, av, ax), method)(Logic(wb, bv, bx))
    return r.value, r.xmask


def _splice(ov: int, ox: int, ws: int, lsb: int, wp: int,
            pv: int, px: int) -> tuple[int, int]:
    """Write part ``(pv, px)`` of width ``wp`` at ``lsb`` into ``(ov, ox)``.

    Mirrors ``Simulator._spliced`` plane-wise; bits past the signal width
    are dropped up front, matching Logic's constructor normalisation.
    """
    if lsb >= ws or wp <= 0:
        return ov, ox
    if wp > ws - lsb:
        wp = ws - lsb
    mp = (1 << wp) - 1
    m = mp << lsb
    nx = (ox & ~m) | ((px & mp) << lsb)
    nv = ((ov & ~m) | ((pv & mp) << lsb)) & ~nx
    return nv, nx


def _fmt_s(v: int, w: int) -> str:
    return v.to_bytes((w + 7) // 8, "big").lstrip(b"\0").decode(
        errors="replace")


def _fmt_b(v: int, x: int, w: int) -> str:
    if not x:
        return bin(v)[2:].zfill(w)
    s = str(Logic(w, v, x))
    return s[s.find("b") + 1:]


def _lstr(v: int, x: int, w: int) -> str:
    return str(Logic(w, v, x))


_RUNTIME_GLOBALS = {
    "XBail": XBail, "_CFinish": _CFinish, "_xop2": _xop2,
    "_splice": _splice, "_fmt_s": _fmt_s, "_fmt_b": _fmt_b, "_lstr": _lstr,
}


# --------------------------------------------------------------------------
# Code generation
# --------------------------------------------------------------------------


def _chkw(width: int) -> int:
    if width <= 0 or width > _MAX_WIDTH:
        raise UnsupportedDesign(f"expression width {width} out of range")
    return width


class _FnEmitter:
    """Lowers one process body into Python source lines.

    Expressions are lowered in A-normal form: every sub-expression is
    materialised *in the event engine's evaluation order*, so side effects
    ($random, short-circuit skips, lazy $display args) land identically.
    A lowered triple ``(v, x, w)`` holds the value-plane expression, the
    xmask-plane expression (the literal ``"0"`` when statically defined),
    and the static width.
    """

    def __init__(self, compiler: "_Compiler", scope: Scope, coroutine: bool):
        self.c = compiler
        self.scope = scope
        self.coroutine = coroutine
        self.lines: list[str] = []
        self.indent = 1
        self._n = 0

    def w(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def temp(self) -> str:
        self._n += 1
        return f"t{self._n}"

    # -- name resolution ----------------------------------------------------

    def _sig(self, name: str) -> int:
        if name.startswith("\0"):
            flat = name[1:]
        else:
            try:
                flat = self.scope.resolve(name)
            except ElaborationError as exc:
                raise UnsupportedDesign(str(exc)) from exc
        idx = self.c.sigidx.get(flat)
        if idx is None:
            raise UnsupportedDesign(f"unknown signal '{flat}'")
        return idx

    # -- expression lowering -------------------------------------------------

    def lower(self, expr: A.Expr) -> tuple[str, str, int]:
        if isinstance(expr, A.Number):
            w = _chkw(expr.width)
            m = (1 << w) - 1
            xm = expr.xmask & m
            return str(expr.value & m & ~xm), str(xm) if xm else "0", w
        if isinstance(expr, A.StringLit):
            data = expr.text.encode()
            width = _chkw(max(8, len(data) * 8))
            return str(int.from_bytes(data, "big") if data else 0), "0", width
        if isinstance(expr, A.Identifier):
            return self._name(expr.name)
        if isinstance(expr, A.Unary):
            return self._unary(expr)
        if isinstance(expr, A.Binary):
            return self._binary(expr)
        if isinstance(expr, A.Ternary):
            return self._ternary(expr)
        if isinstance(expr, A.Concat):
            return self._concat(expr)
        if isinstance(expr, A.Replicate):
            return self._replicate(expr)
        if isinstance(expr, A.Index):
            return self._index(expr)
        if isinstance(expr, A.Slice):
            return self._slice(expr)
        if isinstance(expr, A.SystemCall):
            return self._syscall(expr)
        raise UnsupportedDesign(
            f"cannot compile {type(expr).__name__} expression")

    def _name(self, name: str) -> tuple[str, str, int]:
        if name in self.scope.params:
            return str(self.scope.params[name] & 0xFFFFFFFF), "0", 32
        i = self._sig(name)
        return f"V[{i}]", f"X[{i}]", self.c.widths[i]

    def _unary(self, expr: A.Unary) -> tuple[str, str, int]:
        v, x, w = self.lower(expr.operand)
        m = (1 << w) - 1
        t = self.temp()
        if expr.op == "+":
            return v, x, w
        if expr.op == "~":
            # Logic.not_: flip value bits, X bits stay X with value 0.
            if x == "0":
                self.w(f"{t} = ~{v} & {m}")
            else:
                self.w(f"{t} = ~{v} & {m} & ~{x}")
            return t, x, w
        if expr.op == "-":
            if x == "0":
                self.w(f"{t} = -{v} & {m}")
                return t, "0", w
            tx = self.temp()
            self.w(f"if {x}:")
            self.w(f"    {t} = 0")
            self.w(f"    {tx} = {m}")
            self.w("else:")
            self.w(f"    {t} = -{v} & {m}")
            self.w(f"    {tx} = 0")
            return t, tx, w
        if expr.op == "&":          # reduce_and
            if x == "0":
                self.w(f"{t} = 1 if {v} == {m} else 0")
                return t, "0", 1
            tx = self.temp()
            self.w(f"if ({v} | {x}) != {m}:")
            self.w(f"    {t} = 0")
            self.w(f"    {tx} = 0")
            self.w(f"elif {x}:")
            self.w(f"    {t} = 0")
            self.w(f"    {tx} = 1")
            self.w("else:")
            self.w(f"    {t} = 1")
            self.w(f"    {tx} = 0")
            return t, tx, 1
        if expr.op == "|":          # reduce_or
            if x == "0":
                self.w(f"{t} = 1 if {v} else 0")
                return t, "0", 1
            tx = self.temp()
            self.w(f"if {v}:")
            self.w(f"    {t} = 1")
            self.w(f"    {tx} = 0")
            self.w(f"elif {x}:")
            self.w(f"    {t} = 0")
            self.w(f"    {tx} = 1")
            self.w("else:")
            self.w(f"    {t} = 0")
            self.w(f"    {tx} = 0")
            return t, tx, 1
        if expr.op == "^":          # reduce_xor
            if x == "0":
                self.w(f"{t} = ({v}).bit_count() & 1")
                return t, "0", 1
            tx = self.temp()
            self.w(f"if {x}:")
            self.w(f"    {t} = 0")
            self.w(f"    {tx} = 1")
            self.w("else:")
            self.w(f"    {t} = ({v}).bit_count() & 1")
            self.w(f"    {tx} = 0")
            return t, tx, 1
        if expr.op == "!":          # logical_not
            if x == "0":
                self.w(f"{t} = 0 if {v} else 1")
                return t, "0", 1
            tx = self.temp()
            self.w(f"if {v}:")
            self.w(f"    {t} = 0")
            self.w(f"    {tx} = 0")
            self.w(f"elif {x}:")
            self.w(f"    {t} = 0")
            self.w(f"    {tx} = 1")
            self.w("else:")
            self.w(f"    {t} = 1")
            self.w(f"    {tx} = 0")
            return t, tx, 1
        raise UnsupportedDesign(f"unary '{expr.op}' not compiled")

    def _binary(self, expr: A.Binary) -> tuple[str, str, int]:
        op = expr.op
        if op in ("&&", "||"):
            return self._logical(expr, op == "&&")
        av, ax, wa = self.lower(expr.left)
        bv, bx, wb = self.lower(expr.right)
        t = self.temp()
        defined = ax == "0" and bx == "0"
        if ax == "0":
            anyx = bx
        elif bx == "0":
            anyx = ax
        else:
            anyx = f"{ax} or {bx}"
        if op in ("+", "-", "*", "**"):
            if op in ("+", "-"):
                w = _chkw(max(wa, wb) + 1)
            elif op == "*":
                w = _chkw(min(128, wa + wb))
            else:
                w = max(wa, wb)
            m = (1 << w) - 1
            if op == "**":
                core = f"pow({av}, {bv}, {1 << w})"
            else:
                core = f"({av} {op} {bv}) & {m}"
            if defined:
                self.w(f"{t} = {core}")
                return t, "0", w
            tx = self.temp()
            self.w(f"if {anyx}:")
            self.w(f"    {t} = 0")
            self.w(f"    {tx} = {m}")
            self.w("else:")
            self.w(f"    {t} = {core}")
            self.w(f"    {tx} = 0")
            return t, tx, w
        if op in ("/", "%"):
            w = max(wa, wb)
            m = (1 << w) - 1
            pyop = "//" if op == "/" else "%"
            tx = self.temp()
            bad = f"not {bv}" if defined else f"({anyx}) or not {bv}"
            self.w(f"if {bad}:")
            self.w(f"    {t} = 0")
            self.w(f"    {tx} = {m}")
            self.w("else:")
            self.w(f"    {t} = {av} {pyop} {bv}")
            self.w(f"    {tx} = 0")
            return t, tx, w
        if op in ("==", "!=", "<", "<=", ">", ">="):
            core = f"1 if {av} {op} {bv} else 0"
            if defined:
                self.w(f"{t} = {core}")
                return t, "0", 1
            tx = self.temp()
            self.w(f"if {anyx}:")
            self.w(f"    {t} = 0")
            self.w(f"    {tx} = 1")
            self.w("else:")
            self.w(f"    {t} = {core}")
            self.w(f"    {tx} = 0")
            return t, tx, 1
        if op in ("&", "|", "^"):
            w = max(wa, wb)
            if defined:
                self.w(f"{t} = {av} {op} {bv}")
                return t, "0", w
            meth = {"&": "and_", "|": "or_", "^": "xor"}[op]
            tx = self.temp()
            self.w(f"if {anyx}:")
            self.w(f"    {t}, {tx} = _xop2('{meth}', {wa}, {av}, {ax}, "
                   f"{wb}, {bv}, {bx})")
            self.w("else:")
            self.w(f"    {t} = {av} {op} {bv}")
            self.w(f"    {tx} = 0")
            return t, tx, w
        if op in ("<<", ">>"):
            if op == "<<":
                core = (f"({av} << {bv}) & {(1 << wa) - 1} "
                        f"if {bv} < {wa} else 0")
                meth = "shl"
            else:
                core = f"{av} >> {bv}"
                meth = "shr"
            if defined:
                self.w(f"{t} = {core}")
                return t, "0", wa
            tx = self.temp()
            self.w(f"if {anyx}:")
            self.w(f"    {t}, {tx} = _xop2('{meth}', {wa}, {av}, {ax}, "
                   f"{wb}, {bv}, {bx})")
            self.w("else:")
            self.w(f"    {t} = {core}")
            self.w(f"    {tx} = 0")
            return t, tx, wa
        raise UnsupportedDesign(f"binary '{op}' not compiled")

    def _logical(self, expr: A.Binary, is_and: bool) -> tuple[str, str, int]:
        av, ax, _ = self.lower(expr.left)
        t, tx = self.temp(), self.temp()
        # The right operand lowers *inside* the else branch, mirroring the
        # event engine's short-circuit (a skipped $random stays skipped).
        if is_and:
            guard = f"not {av}" if ax == "0" else f"not {av} and not {ax}"
            self.w(f"if {guard}:")      # a.is_false()
            self.w(f"    {t} = 0")
            self.w(f"    {tx} = 0")
        else:
            self.w(f"if {av}:")         # a.is_true()
            self.w(f"    {t} = 1")
            self.w(f"    {tx} = 0")
        self.w("else:")
        self.indent += 1
        bv, bx, _ = self.lower(expr.right)
        if is_and:
            bfalse = f"not {bv}" if bx == "0" else f"not {bv} and not {bx}"
            self.w(f"if {bfalse}:")     # b.is_false()
            self.w(f"    {t} = 0")
            self.w(f"    {tx} = 0")
        else:
            self.w(f"if {bv}:")         # b.is_true()
            self.w(f"    {t} = 1")
            self.w(f"    {tx} = 0")
        if ax == "0" and bx == "0":
            self.w("else:")
            self.w(f"    {t} = {1 if is_and else 0}")
            self.w(f"    {tx} = 0")
        else:
            self.w(f"elif {ax if bx == '0' else (bx if ax == '0' else ax + ' or ' + bx)}:")
            self.w(f"    {t} = 0")
            self.w(f"    {tx} = 1")
            self.w("else:")
            self.w(f"    {t} = {1 if is_and else 0}")
            self.w(f"    {tx} = 0")
        self.indent -= 1
        return t, tx, 1

    def _ternary(self, expr: A.Ternary) -> tuple[str, str, int]:
        # The event engine evaluates all three operands unconditionally,
        # then resizes the taken arm to the wider branch width (resize is
        # plane-preserving, so no extra code is needed here).
        cv, cx, _ = self.lower(expr.cond)
        v1, x1, w1 = self.lower(expr.if_true)
        v2, x2, w2 = self.lower(expr.if_false)
        w = max(w1, w2)
        m1, m2 = (1 << w1) - 1, (1 << w2) - 1
        t, tx = self.temp(), self.temp()
        self.w(f"if {cv}:")             # cond.is_true()
        self.w(f"    {t} = {v1}")
        self.w(f"    {tx} = {x1}")
        if cx == "0":
            self.w("else:")
            self.w(f"    {t} = {v2}")
            self.w(f"    {tx} = {x2}")
        else:
            self.w(f"elif not {cx}:")   # cond.is_false()
            self.w(f"    {t} = {v2}")
            self.w(f"    {tx} = {x2}")
            self.w("else:")
            self.w(f"    {t} = 0")
            self.w(f"    {tx} = {(1 << w) - 1}")
        return t, tx, w

    def _concat(self, expr: A.Concat) -> tuple[str, str, int]:
        parts = [self.lower(p) for p in expr.parts]
        if not parts:
            raise UnsupportedDesign("empty concatenation")
        w = _chkw(sum(pw for _, _, pw in parts))
        off = w
        vp, xp = [], []
        for pv, px, pw in parts:
            off -= pw
            vp.append(f"({pv} << {off})" if off else f"({pv})")
            if px != "0":
                xp.append(f"({px} << {off})" if off else f"({px})")
        t = self.temp()
        self.w(f"{t} = {' | '.join(vp)}")
        if not xp:
            return t, "0", w
        tx = self.temp()
        self.w(f"{tx} = {' | '.join(xp)}")
        return t, tx, w

    def _replicate(self, expr: A.Replicate) -> tuple[str, str, int]:
        # The event engine evaluates the count dynamically; restricting to
        # elaboration-time constants keeps the generated code straight-line
        # (dynamic counts fall back to the event engine).
        try:
            n = eval_const(expr.count, self.scope.params)
        except ElaborationError as exc:
            raise UnsupportedDesign(
                f"non-constant replication count: {exc}") from exc
        iv, ix, wi = self.lower(expr.inner)
        if n <= 0:
            # Logic.replicate raises ValueError here; reproduce via fallback.
            self.w("raise XBail('non-positive replication count')")
            return "0", "0", 1
        w = _chkw(wi * n)
        factor = ((1 << w) - 1) // ((1 << wi) - 1)
        t = self.temp()
        self.w(f"{t} = {iv} * {factor}")
        if ix == "0":
            return t, "0", w
        tx = self.temp()
        self.w(f"{tx} = {ix} * {factor}")
        return t, tx, w

    def _index(self, expr: A.Index) -> tuple[str, str, int]:
        bv, bx, wb = self._name(expr.target)
        iv, ix, _ = self.lower(expr.index)
        t, tx = self.temp(), self.temp()
        if ix == "0":
            self.w(f"if {iv} < {wb}:")
        else:
            self.w(f"if not {ix} and {iv} < {wb}:")
        self.w(f"    {t} = {bv} >> {iv} & 1")
        if bx == "0":
            self.w(f"    {tx} = 0")
        else:
            self.w(f"    {tx} = {bx} >> {iv} & 1")
        self.w("else:")                 # X index or out of range: unknown(1)
        self.w(f"    {t} = 0")
        self.w(f"    {tx} = 1")
        return t, tx, 1

    def _slice(self, expr: A.Slice) -> tuple[str, str, int]:
        # The event engine evaluates bounds dynamically (an X bound is a
        # SimulationError); constants cover the synthesizable subset and
        # anything else falls back.
        try:
            msb = eval_const(expr.msb, self.scope.params)
            lsb = eval_const(expr.lsb, self.scope.params)
        except ElaborationError as exc:
            raise UnsupportedDesign(
                f"non-constant part-select bound: {exc}") from exc
        if msb < lsb:
            msb, lsb = lsb, msb
        w = _chkw(msb - lsb + 1)
        m = (1 << w) - 1
        bv, bx, wb = self._name(expr.target)
        if lsb >= wb:
            return "0", str(m), w      # Logic.slice: unknown(width)
        t = self.temp()
        if lsb == 0 and wb <= w:
            self.w(f"{t} = {bv}")
        else:
            self.w(f"{t} = {bv} >> {lsb} & {m}")
        if bx == "0":
            return t, "0", w
        tx = self.temp()
        self.w(f"{tx} = {bx} >> {lsb} & {m}")
        return t, tx, w

    def _syscall(self, expr: A.SystemCall) -> tuple[str, str, int]:
        if expr.name == "$time":
            return "S.time", "0", 64
        if expr.name == "$random":
            t = self.temp()
            self.w("S.rand = (S.rand * 1103515245 + 12345) & 4294967295")
            self.w(f"{t} = S.rand")
            return t, "0", 32
        if expr.name in ("$signed", "$unsigned") and len(expr.args) == 1:
            return self.lower(expr.args[0])
        raise UnsupportedDesign(
            f"system function '{expr.name}' not compiled")

    # -- lvalue writes -------------------------------------------------------

    def _store(self, i: int, nv: str, nx: str) -> None:
        if i in self.c.watched:
            self.w(f"S.set({i}, {nv}, {nx})")
        else:
            self.w(f"V[{i}] = {nv}")
            self.w(f"X[{i}] = {nx}")

    def write_lvalue(self, target: A.LValue, tv: str, tx: str, wv: int,
                     blocking: bool) -> None:
        i = self._sig(target.name)
        ws = self.c.widths[i]
        ms = (1 << ws) - 1
        if target.index is None and target.msb is None:
            if wv > ws:                 # resize truncates both planes
                nv = self.temp()
                self.w(f"{nv} = {tv} & {ms}")
                if tx == "0":
                    nx = "0"
                else:
                    nx = self.temp()
                    self.w(f"{nx} = {tx} & {ms}")
            else:                       # zero-extension: planes unchanged
                nv, nx = tv, tx
            if blocking:
                self._store(i, nv, nx)
            else:
                self.w(f"S.nba.append(({i}, None, 0, {nv}, {nx}, {ws}))")
            return
        if target.index is not None:
            iv, ix, _ = self.lower(target.index)
            if ix != "0":
                self.w(f"if {ix}:")     # event: SimulationError on X index
                self.w("    raise XBail('write with X index')")
            pv = f"{tv} & 1"
            px = "0" if tx == "0" else f"{tx} & 1"
            if blocking:
                nv, nx = self.temp(), self.temp()
                self.w(f"{nv}, {nx} = _splice(V[{i}], X[{i}], {ws}, {iv}, "
                       f"1, {pv}, {px})")
                self._store(i, nv, nx)
            else:
                self.w(f"S.nba.append(({i}, {iv}, {iv}, {pv}, {px}, 1))")
            return
        # Part select: the event engine reads bounds with .to_int() (X
        # bits read as 0 — no error), and swaps when reversed.
        mvv, _, _ = self.lower(target.msb)
        lvv, _, _ = self.lower(target.lsb)
        mv, lv, wp = self.temp(), self.temp(), self.temp()
        self.w(f"{mv}, {lv} = ({mvv}, {lvv}) if {mvv} >= {lvv} "
               f"else ({lvv}, {mvv})")
        self.w(f"{wp} = {mv} - {lv} + 1")
        if blocking:
            nv, nx = self.temp(), self.temp()
            self.w(f"{nv}, {nx} = _splice(V[{i}], X[{i}], {ws}, {lv}, {wp}, "
                   f"{tv}, {tx})")
            self._store(i, nv, nx)
        else:
            # _splice masks to the part width at apply time, so the
            # enqueue-time resize of the event engine needs no extra code.
            self.w(f"S.nba.append(({i}, {mv}, {lv}, {tv}, {tx}, {wp}))")

    # -- statements ----------------------------------------------------------

    def stmt(self, s: A.Stmt) -> None:
        # Mirror Simulator._exec: one step per statement, *including* Block
        # wrappers, charged before the statement runs.
        self.w("S.st += 1")
        if isinstance(s, A.Assign):
            tv, tx, wv = self.lower(s.expr)
            self.write_lvalue(s.target, tv, tx, wv, blocking=s.blocking)
        elif isinstance(s, A.Block):
            for sub in s.stmts:
                self.stmt(sub)
        elif isinstance(s, A.If):
            cv, _, _ = self.lower(s.cond)
            self.w(f"if {cv}:")         # is_true(); an X condition takes else
            self.indent += 1
            self.stmt(s.then)
            self.indent -= 1
            if s.other is not None:
                self.w("else:")
                self.indent += 1
                self.stmt(s.other)
                self.indent -= 1
        elif isinstance(s, A.Case):
            self._case(s)
        elif isinstance(s, A.For):
            self.stmt(s.init)
            self.w("while True:")
            self.indent += 1
            self.w(f"if S.st > {_MAX_STEPS}:")
            self.w("    raise XBail('runaway loop')")
            cv, _, _ = self.lower(s.cond)
            self.w(f"if not {cv}:")
            self.w("    break")
            self.stmt(s.body)
            self.stmt(s.step)
            self.indent -= 1
        elif isinstance(s, A.While):
            self.w("while True:")
            self.indent += 1
            self.w(f"if S.st > {_MAX_STEPS}:")
            self.w("    raise XBail('runaway loop')")
            cv, _, _ = self.lower(s.cond)
            self.w(f"if not {cv}:")
            self.w("    break")
            self.stmt(s.body)
            self.indent -= 1
        elif isinstance(s, A.Repeat):
            cv, cx, _ = self.lower(s.count)
            if cx != "0":
                self.w(f"if {cx}:")     # event: SimulationError on X count
                self.w("    raise XBail('repeat count is X')")
            self.w(f"for _ in range({cv}):")
            self.indent += 1
            self.w(f"if S.st > {_MAX_STEPS}:")
            self.w("    raise XBail('runaway loop')")
            self.stmt(s.body)
            self.indent -= 1
        elif isinstance(s, A.Delay):
            if not self.coroutine:
                raise UnsupportedDesign("timing control in a synchronous body")
            self.w(f"yield (0, {self._delay_amount(s.amount)})")
            if s.then is not None:
                self.stmt(s.then)
        elif isinstance(s, A.EventWait):
            if not self.coroutine:
                raise UnsupportedDesign("timing control in a synchronous body")
            edges = tuple((_EDGE_KIND[k], self._sig(sig))
                          for k, sig in s.edges)
            self.w(f"yield (1, {edges!r})")
        elif isinstance(s, A.SysTask):
            self._systask(s)
        else:
            raise UnsupportedDesign(
                f"cannot compile {type(s).__name__} statement")

    def _delay_amount(self, amount: A.Expr) -> int:
        # Only plain defined literals and parameters: the event engine
        # evaluates delays dynamically as bit vectors, which eval_const
        # would not reproduce for arbitrary expressions.
        if isinstance(amount, A.Number) and amount.xmask == 0:
            return amount.value
        if isinstance(amount, A.Identifier) \
                and amount.name in self.scope.params:
            return self.scope.params[amount.name] & 0xFFFFFFFF
        raise UnsupportedDesign("dynamic delay amount")

    def _case(self, s: A.Case) -> None:
        sv, sx, ws = self.lower(s.subject)
        # Pin the subject in temps: label lowering may clobber V/X via
        # $random-free reads only, but keeping temps mirrors the event
        # engine's single evaluation of the subject.
        tsv, tsx = self.temp(), self.temp()
        self.w(f"{tsv} = {sv}")
        self.w(f"{tsx} = {sx}")
        default: A.CaseItem | None = None
        self.w("while True:")
        self.indent += 1
        for item in s.items:
            if item.labels is None:
                default = item      # last default wins, as in the event engine
                continue
            m = self.temp()
            self.w(f"{m} = 0")
            first = True
            for label in item.labels:
                if not first:
                    self.w(f"if not {m}:")
                    self.indent += 1
                self._case_label(s, label, tsv, tsx, ws, m)
                if not first:
                    self.indent -= 1
                first = False
            self.w(f"if {m}:")
            self.indent += 1
            self.stmt(item.body)
            self.w("break")
            self.indent -= 1
        if default is not None:
            self.stmt(default.body)
        self.w("break")
        self.indent -= 1

    def _case_label(self, s: A.Case, label: A.Expr, sv: str, sx: str,
                    ws: int, m: str) -> None:
        """Emit ``m = 1`` when the label matches.  Labels evaluate lazily —
        only reached when previous labels missed — mirroring
        ``Simulator._exec_case``'s first-match walk."""
        lv, lx, wl = self.lower(label)
        w = max(ws, wl)
        full = (1 << w) - 1
        if s.wildcard:
            # casez: label X bits are wildcards.
            if lx == "0":
                cond = f"{sv} == {lv} and not {sx}"
            else:
                care = self.temp()
                self.w(f"{care} = {full} & ~{lx}")
                cond = (f"{sv} & {care} == {lv} & {care} "
                        f"and not {sx} & {care}")
        else:
            cond = f"{sv} == {lv} and {sx} == {lx}"
        self.w(f"if {cond}:")
        self.w(f"    {m} = 1")

    # -- system tasks --------------------------------------------------------

    def _systask(self, s: A.SysTask) -> None:
        name = s.name
        if name in ("$finish", "$stop"):
            self.w("S.finished = True")
            self.w("raise _CFinish()")
            return
        if name not in ("$display", "$write", "$monitor", "$error"):
            raise UnsupportedDesign(f"system task '{name}' not compiled")
        text = self._format(s.args)
        if name == "$write":
            self.w(f"S.write({text})")
        elif name == "$error":
            self.w("S.error_count += 1")
            self.w(f"S.output.append('ERROR: ' + {text})")
        else:
            self.w(f"S.output.append({text})")

    def _format(self, args: tuple[A.Expr, ...]) -> str:
        """Build the $display text expression, consuming args in exactly
        the event engine's order (unconsumed args never evaluate)."""
        if not args:
            return "''"
        if not isinstance(args[0], A.StringLit):
            rendered = []
            for a in args:
                v, x, w = self.lower(a)
                rendered.append(f"_lstr({v}, {x}, {w})")
            return " + ' ' + ".join(rendered)
        fmt = args[0].text
        values = list(args[1:])
        pieces: list[str] = []
        lit: list[str] = []
        i = 0
        while i < len(fmt):
            ch = fmt[i]
            if ch == "%" and i + 1 < len(fmt):
                spec = fmt[i + 1]
                i += 2
                if spec == "%":
                    lit.append("%")
                    continue
                if spec == "0" and i < len(fmt):   # %0d
                    spec = fmt[i]
                    i += 1
                if not values:
                    lit.append("%" + spec)
                    continue
                if lit:
                    pieces.append(repr("".join(lit)))
                    lit = []
                v, x, w = self.lower(values.pop(0))
                if spec in ("d", "D"):
                    pieces.append(f"str({v})" if x == "0"
                                  else f"('x' if {x} else str({v}))")
                elif spec in ("h", "H", "x", "X"):
                    xs = repr("x" * ((w + 3) // 4))
                    pieces.append(f"format({v}, 'x')" if x == "0"
                                  else f"({xs} if {x} else format({v}, 'x'))")
                elif spec in ("b", "B"):
                    pieces.append(f"format({v}, 'b').zfill({w})" if x == "0"
                                  else f"_fmt_b({v}, {x}, {w})")
                elif spec in ("t", "T"):
                    pieces.append(f"str({v})")
                elif spec == "s":
                    pieces.append(f"_fmt_s({v}, {w})")
                else:
                    pieces.append(f"_lstr({v}, {x}, {w})")
            else:
                lit.append(ch)
                i += 1
        if lit or not pieces:
            pieces.append(repr("".join(lit)))
        return " + ".join(pieces)


# --------------------------------------------------------------------------
# Whole-design compiler
# --------------------------------------------------------------------------


class _Compiler:
    def __init__(self, design: Design):
        self.design = design
        self.sigidx: dict[str, int] = {}
        self.widths: list[int] = []
        v0: list[int] = []
        x0: list[int] = []
        for flat, sig in design.signals.items():
            if sig.width <= 0 or sig.width > _MAX_WIDTH:
                raise UnsupportedDesign(
                    f"signal '{flat}' width {sig.width} out of range")
            self.sigidx[flat] = len(self.sigidx)
            self.widths.append(sig.width)
            init = sig.init if sig.init is not None \
                else Logic(sig.width, 0, 0)
            v0.append(init.value)
            x0.append(init.xmask)
        self.v0 = tuple(v0)
        self.x0 = tuple(x0)
        self.watched: set[int] = set()

    def _is_comb(self, proc: Process) -> bool:
        return proc.kind == "assign" or (
            proc.kind == "always" and not proc.edges
            and not Simulator._has_timing(proc.body))

    def compile(self) -> "CompiledProgram":
        design = self.design
        comb: list[Process] = []
        edge: list[Process] = []
        coro: list[tuple[Process, bool]] = []
        comb_watch: dict[int, list[int]] = {}
        edge_watch: dict[int, list[tuple[int, int]]] = {}
        for proc in design.processes:
            if self._is_comb(proc):
                cid = len(comb)
                comb.append(proc)
                for dep in proc.deps:
                    idx = self.sigidx.get(dep)
                    if idx is not None:
                        comb_watch.setdefault(idx, []).append(cid)
            elif proc.kind == "always" and proc.edges:
                if Simulator._has_timing(proc.body):
                    # The event engine errors only if the edge ever fires;
                    # falling back reproduces either outcome.
                    raise UnsupportedDesign(
                        "timing control inside an edge-triggered always block")
                eid = len(edge)
                edge.append(proc)
                for kind, sig in proc.edges:
                    idx = self.sigidx.get(sig)
                    if idx is None:
                        raise UnsupportedDesign(f"unknown edge signal '{sig}'")
                    edge_watch.setdefault(idx, []).append(
                        (_EDGE_KIND[kind], eid))
            else:                   # looping always / initial coroutine
                coro.append((proc, proc.kind == "always"))
        # Time-0 tokens: all comb processes in design order, then coroutine
        # starts in design order — the event scheduler's exact seeding.
        t0 = [(0, cid) for cid in range(len(comb))]
        t0 += [(2, ci) for ci in range(len(coro))]

        self.watched = set(comb_watch) | set(edge_watch)
        self.watched |= self._eventwait_signals(coro)

        chunks: list[str] = []
        for cid, proc in enumerate(comb):
            chunks.append(self._comb_fn(cid, proc))
        for eid, proc in enumerate(edge):
            chunks.append(self._edge_fn(eid, proc))
        for ci, (proc, _restart) in enumerate(coro):
            chunks.append(self._coro_fn(ci, proc))
        chunks.append(
            "COMB = (%s)" % "".join(f"p{i}, " for i in range(len(comb))))
        chunks.append(
            "EDGE = (%s)" % "".join(f"e{i}, " for i in range(len(edge))))
        chunks.append(
            "CORO = (%s)" % "".join(f"c{i}, " for i in range(len(coro))))
        source = "\n".join(chunks) + "\n"
        meta = {
            "index": self.sigidx,
            "widths": tuple(self.widths),
            "v0": self.v0,
            "x0": self.x0,
            "t0": tuple(t0),
            "comb_watch": {i: tuple(v) for i, v in comb_watch.items()},
            "edge_watch": {i: tuple(v) for i, v in edge_watch.items()},
            "restartable": tuple(restart for _, restart in coro),
            "coro_names": tuple(proc.name for proc, _ in coro),
            "top": design.top,
        }
        return CompiledProgram(source, meta)

    def _eventwait_signals(self, coro) -> set[int]:
        """Signals any coroutine can wait on — their writers must notify."""
        out: set[int] = set()

        def walk(stmt: A.Stmt | None, scope: Scope) -> None:
            if stmt is None:
                return
            if isinstance(stmt, A.EventWait):
                for _, sig in stmt.edges:
                    try:
                        flat = sig[1:] if sig.startswith("\0") \
                            else scope.resolve(sig)
                    except ElaborationError as exc:
                        raise UnsupportedDesign(str(exc)) from exc
                    idx = self.sigidx.get(flat)
                    if idx is not None:
                        out.add(idx)
            elif isinstance(stmt, A.Block):
                for s in stmt.stmts:
                    walk(s, scope)
            elif isinstance(stmt, A.If):
                walk(stmt.then, scope)
                walk(stmt.other, scope)
            elif isinstance(stmt, A.Case):
                for item in stmt.items:
                    walk(item.body, scope)
            elif isinstance(stmt, (A.For, A.While, A.Repeat)):
                walk(stmt.body, scope)
            elif isinstance(stmt, A.Delay):
                walk(stmt.then, scope)

        for proc, _restart in coro:
            walk(proc.body, proc.scope)
        return out

    def _comb_fn(self, cid: int, proc: Process) -> str:
        em = _FnEmitter(self, proc.scope, coroutine=False)
        if proc.kind == "assign":
            # Simulator._run_comb evaluates assign processes without
            # charging per-statement steps, so no S.st here.
            assert proc.expr is not None and proc.target is not None
            tv, tx, wv = em.lower(proc.expr)
            em.write_lvalue(proc.target, tv, tx, wv, blocking=True)
        else:
            assert proc.body is not None
            em.stmt(proc.body)
        body = "\n".join(em.lines) or "    pass"
        return f"def p{cid}(S, V, X):\n{body}\n"

    def _edge_fn(self, eid: int, proc: Process) -> str:
        em = _FnEmitter(self, proc.scope, coroutine=False)
        assert proc.body is not None
        em.stmt(proc.body)
        body = "\n".join(em.lines) or "    pass"
        return f"def e{eid}(S, V, X):\n{body}\n"

    def _coro_fn(self, ci: int, proc: Process) -> str:
        em = _FnEmitter(self, proc.scope, coroutine=True)
        assert proc.body is not None
        em.stmt(proc.body)
        body = "\n".join(em.lines)
        return (f"def c{ci}(S, V, X):\n"
                f"    if False:\n        yield None\n{body}\n")


def compile_program(design: Design) -> "CompiledProgram":
    """Compile an elaborated design for :class:`CompiledSim`.

    Raises :class:`UnsupportedDesign` when the design falls outside the
    compiled subset; the caller should use the event engine instead.
    """
    try:
        return _Compiler(design).compile()
    except RecursionError as exc:   # pathologically deep expressions
        raise UnsupportedDesign("expression nesting too deep") from exc


# One code object per generated source.  Candidates whose text differs
# but whose designs are the same generate the same program under different
# design keys, which the program layer cannot share; code objects are
# immutable, so sharing them cannot change what a program computes.
_CODE = LruCache(COMPILE_CACHE_CAPACITY)


class CompiledProgram:
    """Generated source plus scheduler metadata; pickles without the
    exec'd namespace (rebuilt lazily by :meth:`load`).  ``meta`` is
    shared with every simulator of the program: read it, never mutate it."""

    __slots__ = ("source", "meta", "_ns")

    def __init__(self, source: str, meta: dict):
        self.source = source
        self.meta = meta
        self._ns = None

    def load(self) -> dict:
        """The program's namespace: the shared code object, exec'd into
        a fresh namespace of this program's own."""
        if self._ns is None:
            code = _CODE.get(self.source)
            if code is None:
                code = compile(self.source, "<repro.hdl.compiled>", "exec")
                _CODE.put(self.source, code)
            ns = dict(_RUNTIME_GLOBALS)
            exec(code, ns)
            self._ns = ns
        return self._ns

    def __getstate__(self):
        return self.source, self.meta

    def __setstate__(self, state):
        self.source, self.meta = state
        self._ns = None


# --------------------------------------------------------------------------
# Runtime
# --------------------------------------------------------------------------


class _CWait:
    """A suspended coroutine waiting on edges (or an immediate resume)."""

    __slots__ = ("edges", "gen", "ci", "done")

    def __init__(self, edges, gen, ci):
        self.edges = edges
        self.gen = gen
        self.ci = ci
        self.done = False


class CompiledSim:
    """Runs a :class:`CompiledProgram` with event-scheduler semantics.

    Exposes the same post-run surface as :class:`Simulator`: ``time``,
    ``output``, ``error_count``, ``finished`` and :meth:`stats`.  Raises
    :class:`XBail` where the event engine would raise an error — callers
    must then re-run the event engine for the authoritative result.

    :meth:`prime`, :meth:`poke`, :meth:`settle` and :meth:`peek` drive the
    ports directly instead, with the delta-cycle semantics of
    :class:`~repro.hdl.testbench.StimulusRunner` on the event engine.
    """

    def __init__(self, program: CompiledProgram, seed: int = 1):
        meta = program.meta
        ns = program.load()
        self.program = program
        self.V = list(meta["v0"])
        self.X = list(meta["x0"])
        self._widths = meta["widths"]
        self._index = meta["index"]
        self._comb_fns = ns["COMB"]
        self._edge_fns = ns["EDGE"]
        self._coro_fns = ns["CORO"]
        self._comb_watch = meta["comb_watch"]
        self._edge_watch = meta["edge_watch"]
        self._restartable = meta["restartable"]
        self._coro_names = meta["coro_names"]
        self._t0 = meta["t0"]
        self.time = 0
        self.output: list[str] = []
        self.error_count = 0
        self.finished = False
        self.rand = (seed * 2654435761 + 1) & 0xFFFFFFFF
        self.st = 0
        self.active: deque = deque()
        self.nba: list = []
        self.heap: list = []
        self._heap_seq = 0
        self._edge_waiters: dict[int, list[_CWait]] = {}
        self.events = 0
        self.delta_cycles = 0
        self.nba_updates = 0
        self.time_slots = 0

    # -- value plumbing ------------------------------------------------------

    def set(self, i: int, nv: int, nx: int) -> None:
        """Write a signal and fire its watchers on change.  Pair equality
        is Logic equality: widths are fixed and planes are normalised."""
        ov, ox = self.V[i], self.X[i]
        if ov == nv and ox == nx:
            return
        self.V[i] = nv
        self.X[i] = nx
        self._notify(i, ov, ox, nv, nx)

    def write(self, text: str) -> None:
        out = self.output
        if out and not out[-1].endswith("\n"):
            out[-1] += text
        else:
            out.append(text)

    def _notify(self, i: int, ov: int, ox: int, nv: int, nx: int) -> None:
        active = self.active
        for cid in self._comb_watch.get(i, ()):
            active.append((0, cid))
        # Edge predicates on bit 0, matching Simulator._notify (an X bit
        # stores value 0, so the value plane alone decides 1-ness).
        pos = (nv & 1) and not (ov & 1)
        neg = not (nv & 1) and not (nx & 1) and ((ov | ox) & 1)
        for kind, eid in self._edge_watch.get(i, ()):
            if (kind == 0 and pos) or (kind == 1 and neg) or kind == 2:
                active.append((1, eid))
        waiters = self._edge_waiters.get(i)
        if waiters:
            still = []
            for wait in waiters:
                if wait.done:
                    continue
                hit = any((k == 0 and pos) or (k == 1 and neg) or k == 2
                          for k, s in wait.edges if s == i)
                if hit:
                    wait.done = True
                    active.append((4, wait))
                else:
                    still.append(wait)
            self._edge_waiters[i] = still

    # -- coroutine plumbing --------------------------------------------------

    def _advance(self, gen, ci: int) -> None:
        try:
            req = next(gen)
        except StopIteration:
            if self._restartable[ci]:
                self.active.append((3, ci))
            return
        except _CFinish:
            return
        kind, payload = req
        if kind == 0:
            if payload <= 0:
                self.active.append((4, _CWait((), gen, ci)))
            else:
                self._heap_seq += 1
                heapq.heappush(self.heap, (self.time + payload,
                                           self._heap_seq, (gen, ci)))
        else:
            wait = _CWait(payload, gen, ci)
            for _, s in payload:
                self._edge_waiters.setdefault(s, []).append(wait)

    def _apply_nba(self) -> None:
        updates = self.nba
        self.nba = []
        self.nba_updates += len(updates)
        for i, msb, lsb, pv, px, wp in updates:
            if msb is None:
                self.set(i, pv, px)
            else:
                nv, nx = _splice(self.V[i], self.X[i], self._widths[i],
                                 lsb, wp, pv, px)
                self.set(i, nv, nx)

    # -- scheduler -----------------------------------------------------------

    def run(self, max_time: int = 1_000_000) -> None:
        """Simulate to completion, or raise :class:`XBail` to fall back.

        Telemetry publishes only on a completed run — an abandoned run's
        counters would double-count with the event re-run's.
        """
        self._run(max_time)
        self._publish_telemetry()

    def stats(self) -> dict[str, int]:
        return {"events": self.events, "delta_cycles": self.delta_cycles,
                "nba_updates": self.nba_updates,
                "time_slots": self.time_slots, "final_time": self.time}

    def _publish_telemetry(self) -> None:
        if not get_tracer().enabled:
            return
        metrics = get_metrics()
        metrics.counter("sim.runs").add(1)
        metrics.counter("sim.events").add(self.events)
        metrics.counter("sim.delta_cycles").add(self.delta_cycles)
        metrics.counter("sim.nba_updates").add(self.nba_updates)
        metrics.counter("sim.time_slots").add(self.time_slots)
        metrics.counter("sim.backend.compiled.runs").add(1)
        metrics.counter("sim.backend.compiled.events").add(self.events)

    def _run(self, max_time: int) -> None:
        active = self.active
        V, X = self.V, self.X
        comb_fns = self._comb_fns
        edge_fns = self._edge_fns
        coro_fns = self._coro_fns
        for tok in self._t0:
            active.append(tok)
        restart_counts: dict[str, int] = {}
        while True:
            self.st = 0
            while active or self.nba:
                if self.finished:
                    return
                self.delta_cycles += 1
                while active:
                    tag, arg = active.popleft()
                    self.events += 1
                    self.st += 1
                    if self.st > _MAX_STEPS:
                        raise XBail("runaway activity")
                    if tag == 0:
                        try:
                            comb_fns[arg](self, V, X)
                        except _CFinish:
                            pass
                    elif tag == 1:
                        try:
                            edge_fns[arg](self, V, X)
                        except _CFinish:
                            pass
                    elif tag == 4:
                        self._advance(arg.gen, arg.ci)
                    elif tag == 2:
                        self._advance(coro_fns[arg](self, V, X), arg)
                    else:       # 3: restart a looping always process
                        key = self._coro_names[arg]
                        n = restart_counts.get(key, 0) + 1
                        restart_counts[key] = n
                        if n > _MAX_STEPS:
                            raise XBail("always process never consumes time")
                        self._advance(coro_fns[arg](self, V, X), arg)
                    if self.finished:
                        return
                # The event engine charges steps per *statement* and errors
                # mid-stream; catching the overflow at the delta boundary
                # still guarantees the fallback whenever it would have.
                if self.st > _MAX_STEPS:
                    raise XBail("runaway activity")
                self._apply_nba()
            if not self.heap:
                return
            next_time = self.heap[0][0]
            if next_time > max_time:
                return
            self.time = next_time
            self.time_slots += 1
            restart_counts.clear()
            while self.heap and self.heap[0][0] == self.time:
                _, _, (gen, ci) = heapq.heappop(self.heap)
                active.append((4, _CWait((), gen, ci)))

    def value_of(self, flat_name: str) -> Logic:
        i = self._index[flat_name]
        return Logic(self._widths[i], self.V[i], self.X[i])

    # -- stimulus driver -----------------------------------------------------

    def prime(self) -> None:
        """Queue every combinational process once, in design order, as the
        event driver primes them; coroutines never start."""
        self.active.extend(tok for tok in self._t0 if tok[0] == 0)

    def poke(self, flat_name: str, value: int) -> None:
        """Drive a signal to a defined value (truncated to its width)."""
        i = self._index[flat_name]
        self.set(i, value & ((1 << self._widths[i]) - 1), 0)

    peek = value_of

    def settle(self, max_iters: int) -> None:
        """Drain active, then NBA, until quiet (delta cycles at the
        current time).

        Steps are charged per statement, as in the event engine.  Raises
        :class:`XBail` past ``max_iters`` delta cycles or the step ceiling,
        where the event driver raises an error; the caller replays on the
        event engine.  ``$finish`` ends the process activation and does not
        stop settling, as in the event driver.
        """
        active = self.active
        V, X = self.V, self.X
        comb_fns = self._comb_fns
        edge_fns = self._edge_fns
        self.st = 0
        iters = 0
        while active or self.nba:
            iters += 1
            if iters > max_iters:
                raise XBail("design did not settle")
            while active:
                tag, arg = active.popleft()
                # Only comb (0) and edge (1) processes run here.
                fn = comb_fns[arg] if tag == 0 else edge_fns[arg]
                try:
                    fn(self, V, X)
                except _CFinish:
                    pass
                if self.st > _MAX_STEPS:
                    raise XBail("runaway activity")
            self._apply_nba()
