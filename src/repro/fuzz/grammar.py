"""Seeded grammar-driven generation of mini-Verilog designs + testbenches.

Cases are built as ASTs and rendered through :mod:`repro.hdl.unparse`, so
a generated design is valid by construction and replayable from
``(campaign_seed, index)`` alone: the per-case RNG is
``random.Random(_stable_seed(campaign_seed, index))`` (SHA-256 based, so
identical across processes and ``PYTHONHASHSEED`` values).

The grammar deliberately stays inside the *synthesizable* subset for the
DUT (no ``/``/``%``/``**``, no X literals, constant in-range bit/part
selects, latch-free always blocks, single driver per signal) so the
synthesis-vs-simulation oracle retains full power — any divergence it
reports is a real toolchain bug, not a known semantic gap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..hdl import ast as A
from ..hdl.unparse import unparse
from ..llm.model import _stable_seed

DUT_NAME = "fz_dut"
LEAF_NAME = "fz_leaf"
TB_NAME = "tb"

_BINOPS = ("&", "|", "^", "+", "-", "*", "<<", ">>",
           "==", "!=", "<", ">", "<=", ">=", "&&", "||")
_UNOPS = ("~", "!", "-", "&", "|", "^")


@dataclass(frozen=True)
class FuzzConfig:
    """Size/feature mix knobs for the generator."""

    max_inputs: int = 3
    max_outputs: int = 2
    max_width: int = 8
    max_depth: int = 3
    stimulus_steps: int = 4
    p_always: float = 0.35        # drive an output from always @* vs assign
    p_sequential: float = 0.20    # add a posedge-clocked output
    p_hierarchy: float = 0.25     # instantiate a leaf submodule
    p_ternary: float = 0.5
    p_concat: float = 0.4


@dataclass(frozen=True)
class FuzzCase:
    """One generated design + testbench, replayable from its seed."""

    index: int
    seed: int                     # derived per-case seed (for reporting)
    campaign_seed: int
    dut_name: str
    dut_source: str
    tb_source: str
    top: str = TB_NAME
    sequential: bool = False
    hierarchical: bool = False

    def combined_source(self) -> str:
        return self.dut_source + "\n" + self.tb_source


def _n(value: int, width: int = 32, sized: bool = False) -> A.Number:
    return A.Number(width, value, 0, sized)


class _ExprGen:
    """Random expression trees over a fixed signal environment."""

    def __init__(self, rng: random.Random, env: dict[str, int],
                 config: FuzzConfig):
        self.rng = rng
        self.env = env            # name -> width
        self.config = config

    def _leaf(self) -> A.Expr:
        rng = self.rng
        if self.env and rng.random() < 0.7:
            return A.Identifier(rng.choice(sorted(self.env)))
        width = rng.randint(1, self.config.max_width)
        return _n(rng.getrandbits(width), width, sized=True)

    def gen(self, depth: int) -> A.Expr:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.2:
            return self._leaf()
        roll = rng.random()
        if roll < 0.40:
            op = rng.choice(_BINOPS)
            right = self.gen(depth - 1)
            if op in ("<<", ">>") and rng.random() < 0.75:
                # Bias shift amounts toward small constants.
                right = _n(rng.randint(0, self.config.max_width),
                           4, sized=True)
            return A.Binary(op, self.gen(depth - 1), right)
        if roll < 0.52:
            return A.Unary(rng.choice(_UNOPS), self.gen(depth - 1))
        if roll < 0.52 + 0.16 * self.config.p_ternary:
            return A.Ternary(self.gen(depth - 1), self.gen(depth - 1),
                             self.gen(depth - 1))
        if roll < 0.52 + 0.16 * self.config.p_ternary \
                + 0.16 * self.config.p_concat:
            parts = tuple(self.gen(depth - 1)
                          for _ in range(rng.randint(2, 3)))
            if rng.random() < 0.3:
                return A.Replicate(_n(rng.randint(1, 3), 32),
                                   A.Concat(parts))
            return A.Concat(parts)
        if self.env:
            name = rng.choice(sorted(self.env))
            width = self.env[name]
            if width > 1 and rng.random() < 0.5:
                msb = rng.randint(0, width - 1)
                lsb = rng.randint(0, msb)
                return A.Slice(name, _n(msb), _n(lsb))
            return A.Index(name, _n(rng.randint(0, width - 1)))
        return self._leaf()


@dataclass
class _Signal:
    name: str
    width: int


def _rng_of(width: int) -> A.Range | None:
    if width == 1:
        return None
    return A.Range(_n(width - 1), _n(0))


def _build_leaf(rng: random.Random, config: FuzzConfig) -> A.Module:
    """A tiny combinational leaf module for hierarchy cases."""
    n_in = rng.randint(1, 2)
    inputs = [_Signal(f"li{i}", rng.randint(1, config.max_width))
              for i in range(n_in)]
    out = _Signal("lo", rng.randint(1, config.max_width))
    env = {s.name: s.width for s in inputs}
    gen = _ExprGen(rng, env, config)
    ports = tuple([A.Port(s.name, "input", _rng_of(s.width))
                   for s in inputs]
                  + [A.Port(out.name, "output", _rng_of(out.width))])
    assign = A.ContinuousAssign(A.LValue(out.name), gen.gen(2))
    return A.Module(LEAF_NAME, ports, assigns=(assign,))


def _comb_always(gen: _ExprGen, rng: random.Random,
                 out: _Signal) -> A.Always:
    """Latch-free ``always @*``: unconditional assign first, then maybe
    a conditional overwrite."""
    stmts: list[A.Stmt] = [
        A.Assign(A.LValue(out.name), gen.gen(2), blocking=True)]
    if rng.random() < 0.6:
        then = A.Assign(A.LValue(out.name), gen.gen(2), blocking=True)
        other = None
        if rng.random() < 0.5:
            other = A.Assign(A.LValue(out.name), gen.gen(1), blocking=True)
        stmts.append(A.If(gen.gen(1), then, other))
    return A.Always((), A.Block(tuple(stmts)))


def _build_dut(rng: random.Random, config: FuzzConfig
               ) -> tuple[A.SourceFile, list[_Signal], list[_Signal],
                          bool, bool]:
    """Returns (source file, inputs, outputs, sequential, hierarchical)."""
    n_in = rng.randint(1, config.max_inputs)
    n_out = rng.randint(1, config.max_outputs)
    inputs = [_Signal(f"in{i}", rng.randint(1, config.max_width))
              for i in range(n_in)]
    outputs = [_Signal(f"out{i}", rng.randint(1, config.max_width))
               for i in range(n_out)]

    sequential = rng.random() < config.p_sequential
    hierarchical = rng.random() < config.p_hierarchy
    if sequential:
        inputs.insert(0, _Signal("clk", 1))

    sf = A.SourceFile()
    env = {s.name: s.width for s in inputs if s.name != "clk"}

    nets: list[A.Net] = []
    assigns: list[A.ContinuousAssign] = []
    always_blocks: list[A.Always] = []
    instances: list[A.Instance] = []

    if hierarchical:
        leaf = _build_leaf(rng, config)
        sf.add(leaf)
        leaf_out_port = leaf.ports[-1]
        leaf_out_w = 1 if leaf_out_port.rng is None else \
            leaf_out_port.rng.msb.value + 1
        nets.append(A.Net("lw", "wire", _rng_of(leaf_out_w)))
        gen = _ExprGen(rng, env, config)
        conns = [(p.name, gen.gen(1)) for p in leaf.ports[:-1]]
        conns.append((leaf_out_port.name, A.Identifier("lw")))
        instances.append(A.Instance(LEAF_NAME, "u_leaf", tuple(conns)))
        env["lw"] = leaf_out_w

    ports: list[A.Port] = []
    for s in inputs:
        ports.append(A.Port(s.name, "input", _rng_of(s.width)))

    gen = _ExprGen(rng, env, config)
    for i, out in enumerate(outputs):
        if sequential and i == 0:
            ports.append(A.Port(out.name, "output", _rng_of(out.width),
                                is_reg=True))
            always_blocks.append(A.Always(
                (("posedge", "clk"),),
                A.Assign(A.LValue(out.name), gen.gen(config.max_depth),
                         blocking=False)))
        elif rng.random() < config.p_always:
            ports.append(A.Port(out.name, "output", _rng_of(out.width),
                                is_reg=True))
            always_blocks.append(_comb_always(gen, rng, out))
        else:
            ports.append(A.Port(out.name, "output", _rng_of(out.width)))
            assigns.append(A.ContinuousAssign(
                A.LValue(out.name), gen.gen(config.max_depth)))

    sf.add(A.Module(DUT_NAME, tuple(ports), nets=tuple(nets),
                    assigns=tuple(assigns),
                    always_blocks=tuple(always_blocks),
                    instances=tuple(instances)))
    return sf, inputs, outputs, sequential, hierarchical


def _build_tb(rng: random.Random, config: FuzzConfig,
              inputs: list[_Signal], outputs: list[_Signal],
              sequential: bool) -> A.SourceFile:
    nets: list[A.Net] = []
    for s in inputs:
        nets.append(A.Net(s.name, "reg", _rng_of(s.width)))
    for s in outputs:
        nets.append(A.Net(s.name, "wire", _rng_of(s.width)))

    conns = tuple((s.name, A.Identifier(s.name))
                  for s in inputs + outputs)
    inst = A.Instance(DUT_NAME, "u_dut", conns)

    stmts: list[A.Stmt] = []
    display_args = tuple(A.Identifier(s.name) for s in outputs)
    fmt_tail = " ".join(f"{s.name}=%b" for s in outputs)
    for step in range(config.stimulus_steps):
        for s in inputs:
            if s.name == "clk":
                continue
            stmts.append(A.Assign(
                A.LValue(s.name),
                _n(rng.getrandbits(s.width), s.width, sized=True),
                blocking=True))
        if sequential:
            stmts.append(A.Assign(A.LValue("clk"), _n(0, 1, sized=True),
                                  blocking=True))
            stmts.append(A.Delay(_n(1)))
            stmts.append(A.Assign(A.LValue("clk"), _n(1, 1, sized=True),
                                  blocking=True))
        stmts.append(A.Delay(_n(1)))
        stmts.append(A.SysTask(
            "$display",
            (A.StringLit(f"s{step} {fmt_tail}"),) + display_args))
    stmts.append(A.SysTask("$display", (A.StringLit("PASS: fuzz case"),)))
    stmts.append(A.SysTask("$finish"))

    tb = A.Module(TB_NAME, (), nets=tuple(nets), instances=(inst,),
                  initial_blocks=(A.Initial(A.Block(tuple(stmts))),))
    sf = A.SourceFile()
    sf.add(tb)
    return sf


def generate_case(campaign_seed: int, index: int,
                  config: FuzzConfig | None = None) -> FuzzCase:
    """Deterministically generate case ``index`` of a campaign."""
    config = config or FuzzConfig()
    case_seed = _stable_seed("fuzz", campaign_seed, index)
    rng = random.Random(case_seed)
    dut_sf, inputs, outputs, sequential, hierarchical = \
        _build_dut(rng, config)
    tb_sf = _build_tb(rng, config, inputs, outputs, sequential)
    return FuzzCase(index=index, seed=case_seed,
                    campaign_seed=campaign_seed, dut_name=DUT_NAME,
                    dut_source=unparse(dut_sf), tb_source=unparse(tb_sf),
                    sequential=sequential, hierarchical=hierarchical)


def generate_cases(campaign_seed: int, budget: int,
                   config: FuzzConfig | None = None):
    """Yield the campaign's case stream (index 0 .. budget-1)."""
    for index in range(budget):
        yield generate_case(campaign_seed, index, config)
