"""Differential oracles: six independent ways a fuzz case can disagree.

Each oracle compares two implementations that the repo *claims* are
equivalent (the PR 1–3 equivalence stories plus the core sim-vs-synth
semantic contract).  An oracle returns an :class:`OracleReport`; a report
with ``ok=False`` is a finding worth shrinking.

(a) ``synth``     — event-driven simulation vs bit-blasted AIG evaluation
(b) ``cache``     — cold-compile, warm-cache, and cache-free runs agree
(c) ``parallel``  — ``ParallelEvaluator.map`` on a fork process pool vs a
                    serial comprehension
(d) ``roundtrip`` — parse → unparse → reparse is a structural fixpoint
(e) ``compiled``  — compiled straight-line engine vs the event engine, on
                    the testbench and through the stimulus driver
(f) ``critic``    — trojan-mutated DUTs must be flagged by the critic
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..exec.parallel import ParallelEvaluator
from ..hdl import parse, run_testbench, strip_locations, unparse
from ..hdl.compile import CompileCache
from ..hdl.elaborate import elaborate
from ..hdl.errors import HdlError
from ..hdl.testbench import TestbenchResult, _EventDriver, _simulate
from ..synth.cec import check_against_simulation
from ..synth.flatten import synthesize_source
from ..synth.synthesize import SynthesisError
from .grammar import FuzzCase

MAX_SIM_TIME = 10_000


def _error_slug(exc: BaseException) -> str:
    """Stable fingerprint of an error: type plus its message shape.

    Identifiers and numbers are stripped so the slug survives shrinking
    (signal names change), but two *different* rejection reasons — say
    "division not synthesizable" vs "no driver" — stay distinct, which
    keeps the shrinker from wandering onto an unrelated error.
    """
    words = []
    for token in str(exc).replace("'", " ").replace('"', " ").split():
        if any(ch.isdigit() for ch in token):
            continue
        if token.isidentifier() and token.lower() != token:
            continue
        words.append(token.lower())
        if len(words) >= 5:
            break
    return f"{type(exc).__name__}:{'-'.join(words)}"


@dataclass
class OracleReport:
    """Outcome of one oracle on one case."""

    name: str
    ok: bool
    skipped: bool = False
    kind: str = ""                # coarse failure class, stable under shrinking
    detail: str = ""

    @property
    def divergence(self) -> bool:
        return not self.ok and not self.skipped


def _result_fields(result: TestbenchResult) -> tuple:
    return (result.compiled, result.pass_count, result.fail_count,
            result.error_count, result.finished, result.sim_time,
            tuple(result.output), result.compile_error,
            result.runtime_error)


def _diff(label_a: str, a: tuple, label_b: str, b: tuple) -> str:
    names = ("compiled", "pass", "fail", "error", "finished", "sim_time",
             "output", "compile_error", "runtime_error")
    parts = [f"{n}: {label_a}={x!r} {label_b}={y!r}"
             for n, x, y in zip(names, a, b) if x != y]
    return "; ".join(parts)


# --------------------------------------------------------------------------
# (a) simulation vs synthesized netlist
# --------------------------------------------------------------------------


def oracle_synth(case: FuzzCase) -> OracleReport:
    if case.sequential:
        return OracleReport("synth", ok=True, skipped=True,
                            detail="sequential case (combinational CEC only)")
    try:
        synth = synthesize_source(case.dut_source, case.dut_name)
    except (SynthesisError, HdlError) as exc:
        # The grammar stays inside the synthesizable subset, so a refusal
        # to synthesize a generated design is itself a finding.
        return OracleReport(
            "synth", ok=False, kind=f"synth-error:{_error_slug(exc)}",
            detail=f"synthesis rejected in-subset design: {exc}")
    module = parse(case.dut_source).modules[case.dut_name]
    try:
        cec = check_against_simulation(synth, case.dut_source, module,
                                       vectors=16, seed=case.seed % 65_521)
    except HdlError as exc:
        return OracleReport(
            "synth", ok=False, kind=f"sim-error:{_error_slug(exc)}",
            detail=f"simulation failed during CEC: {exc}")
    if not cec.equivalent:
        return OracleReport(
            "synth", ok=False, kind="cec-mismatch",
            detail=f"outputs {cec.mismatched_outputs} diverge on "
                   f"{cec.counterexample} after {cec.vectors_checked} vectors")
    return OracleReport("synth", ok=True)


# --------------------------------------------------------------------------
# (b) compile cache: cold vs warm vs cache-free
# --------------------------------------------------------------------------


def oracle_cache(case: FuzzCase) -> OracleReport:
    cache = CompileCache()
    cold = run_testbench(case.dut_source, case.top, max_time=MAX_SIM_TIME,
                         seed=1, tb_source=case.tb_source, cache=cache)
    warm = run_testbench(case.dut_source, case.top, max_time=MAX_SIM_TIME,
                         seed=1, tb_source=case.tb_source, cache=cache)
    # Cache-free reference: straight parse → elaborate → simulate.
    try:
        design = elaborate(parse(case.combined_source()), case.top)
        ref = _simulate(design, MAX_SIM_TIME, 1)
    except HdlError as exc:
        ref = TestbenchResult(compiled=False, compile_error=str(exc))
    f_cold, f_warm, f_ref = (_result_fields(r) for r in (cold, warm, ref))
    if f_cold != f_warm:
        return OracleReport("cache", ok=False, kind="cold-vs-warm",
                            detail=_diff("cold", f_cold, "warm", f_warm))
    if f_cold != f_ref:
        return OracleReport("cache", ok=False, kind="cached-vs-direct",
                            detail=_diff("cached", f_cold, "direct", f_ref))
    return OracleReport("cache", ok=True)


# --------------------------------------------------------------------------
# (c) parallel vs serial evaluation
# --------------------------------------------------------------------------


def run_testbench_task(payload: tuple) -> TestbenchResult:
    """``(source, top, max_time, seed, tb_source) -> TestbenchResult``."""
    source, top, max_time, seed, tb_source = payload
    return run_testbench(source, top, max_time=max_time, seed=seed,
                         tb_source=tb_source)


def oracle_parallel(case: FuzzCase) -> OracleReport:
    payloads = [(case.dut_source, case.top, MAX_SIM_TIME, seed,
                 case.tb_source) for seed in (1, 2, 3)]
    evaluator = ParallelEvaluator(jobs=2)
    par = evaluator.map(run_testbench_task, payloads)
    ser = [run_testbench_task(p) for p in payloads]
    for i, (p, s) in enumerate(zip(par, ser)):
        fp, fs = _result_fields(p), _result_fields(s)
        if fp != fs:
            return OracleReport(
                "parallel", ok=False, kind="parallel-vs-serial",
                detail=f"payload {i}: " + _diff("parallel", fp, "serial", fs))
    return OracleReport("parallel", ok=True)


# --------------------------------------------------------------------------
# (d) parse → unparse → reparse round trip
# --------------------------------------------------------------------------


def oracle_roundtrip(case: FuzzCase) -> OracleReport:
    for label, src in (("dut", case.dut_source), ("tb", case.tb_source)):
        try:
            first = strip_locations(parse(src))
            text = unparse(first)
            second = strip_locations(parse(text))
        except HdlError as exc:
            return OracleReport("roundtrip", ok=False, kind="reparse-error",
                                detail=f"{label}: {exc}")
        if first != second:
            return OracleReport("roundtrip", ok=False, kind="ast-mismatch",
                                detail=f"{label}: reparsed AST differs")
        if unparse(second) != text:
            return OracleReport("roundtrip", ok=False, kind="not-fixpoint",
                                detail=f"{label}: unparse is not a fixpoint")
    return OracleReport("roundtrip", ok=True)


# --------------------------------------------------------------------------
# (e) compiled engine vs event-driven engine
# --------------------------------------------------------------------------


def oracle_compiled(case: FuzzCase) -> OracleReport:
    """The compiled fast path must reproduce the event engine exactly.

    Two comparisons: the whole testbench run, and the case's DUT alone on
    seeded random input vectors, the compiled stimulus driver against the
    event one.  Ineligible designs and runtime bails are skips, not
    findings — production falls back to the event engine for them — but
    any *completed* compiled run must match field-for-field.  The case is
    a skip only when both comparisons are.
    """
    reports = (_compare_testbench(case), _compare_stimulus(case))
    for report in reports:
        if report.divergence:
            return report
    if all(report.skipped for report in reports):
        return OracleReport("compiled", ok=True, skipped=True,
                            detail="; ".join(r.detail for r in reports))
    return OracleReport("compiled", ok=True)


def _compare_testbench(case: FuzzCase) -> OracleReport:
    from ..hdl.compiled import UnsupportedDesign, XBail, compile_program
    from ..hdl.testbench import _simulate_compiled
    try:
        design = elaborate(parse(case.combined_source()), case.top)
    except HdlError as exc:
        return OracleReport("compiled", ok=True, skipped=True,
                            detail=f"case does not compile: {exc}")
    try:
        program = compile_program(design)
    except UnsupportedDesign as exc:
        return OracleReport("compiled", ok=True, skipped=True,
                            detail=f"ineligible for compiled engine: {exc}")
    try:
        fast = _simulate_compiled(program, MAX_SIM_TIME, 1)
    except XBail as exc:
        return OracleReport("compiled", ok=True, skipped=True,
                            detail=f"compiled engine bailed: {exc}")
    ref = _simulate(design, MAX_SIM_TIME, 1)
    f_fast, f_ref = _result_fields(fast), _result_fields(ref)
    if f_fast != f_ref:
        return OracleReport(
            "compiled", ok=False, kind="compiled-vs-event",
            detail=_diff("compiled", f_fast, "event", f_ref))
    return OracleReport("compiled", ok=True)


STIMULUS_VECTORS = 8
SETTLE_ITERS = 100_000


def _drive(driver, vectors: list[dict[str, int]], outputs: list[str],
           clk: str | None) -> list[tuple[str, ...]]:
    """Output rows of one stimulus driver, stepped the way
    ``StimulusRunner.apply`` steps it."""
    driver.settle(SETTLE_ITERS)
    rows = []
    for vector in vectors:
        for port, value in vector.items():
            driver.poke(port, value)
        for level in (0, 1, 0) if clk else ():
            driver.poke(clk, level)
            driver.settle(SETTLE_ITERS)
        if not clk:
            driver.settle(SETTLE_ITERS)
        rows.append(tuple(str(driver.peek(name)) for name in outputs))
    return rows


def _compare_stimulus(case: FuzzCase) -> OracleReport:
    from ..hdl.compiled import (CompiledSim, UnsupportedDesign, XBail,
                                compile_program)
    try:
        design = elaborate(parse(case.dut_source), case.dut_name)
    except HdlError as exc:
        return OracleReport("compiled", ok=True, skipped=True,
                            detail=f"DUT does not compile: {exc}")
    try:
        program = compile_program(design)
    except UnsupportedDesign as exc:
        return OracleReport("compiled", ok=True, skipped=True,
                            detail=f"DUT ineligible for compiled driver: {exc}")
    ports = [sig for sig in design.signals.values() if sig.is_port]
    outputs = [sig.name for sig in ports if sig.direction == "output"]
    clk = "clk" if case.sequential else None
    rng = random.Random(case.seed)
    vectors = [{sig.name: rng.getrandbits(sig.width) for sig in ports
                if sig.direction == "input" and sig.name != clk}
               for _ in range(STIMULUS_VECTORS)]
    fast_driver = CompiledSim(program, seed=1)
    fast_driver.prime()
    try:
        fast = _drive(fast_driver, vectors, outputs, clk)
    except XBail as exc:
        return OracleReport("compiled", ok=True, skipped=True,
                            detail=f"compiled driver bailed: {exc}")
    try:
        ref = _drive(_EventDriver(design, seed=1), vectors, outputs, clk)
    except HdlError as exc:
        return OracleReport(
            "compiled", ok=False, kind="stimulus-event-error",
            detail=f"compiled driver completed, event driver raised: {exc}")
    for i, (row_fast, row_ref) in enumerate(zip(fast, ref)):
        if row_fast != row_ref:
            return OracleReport(
                "compiled", ok=False, kind="stimulus-compiled-vs-event",
                detail=f"vector {i} {vectors[i]}: outputs {outputs} "
                       f"compiled={row_fast} event={row_ref}")
    return OracleReport("compiled", ok=True)


def oracle_critic(case: FuzzCase) -> OracleReport:
    """A trojan-mutated DUT must be flagged by the critic's rule stage.

    The mutation mirrors :func:`repro.flows.security.insert_trojan`:
    redirect one combinational output through a rare-trigger corruption
    mux keyed on a multi-bit input.  The critic (`critic-flag` oracle)
    must label the mutant ``trojan``; a mutant the rules wave through is
    a finding.  Cases without an eligible port pair — or whose random
    logic already trips the trojan rule — are skips, not findings.
    """
    import re

    from ..critic.rules import validate_rtl
    from ..hdl.lint import _decl_widths
    from ..llm.model import _stable_seed

    if case.sequential:
        return OracleReport("critic", ok=True, skipped=True,
                            detail="sequential DUT: insertion pattern "
                                   "is combinational-only")
    try:
        source = parse(case.dut_source)
    except HdlError as exc:
        return OracleReport("critic", ok=True, skipped=True,
                            detail=f"DUT does not parse: {exc}")
    module = source.modules.get(case.dut_name)
    if module is None:
        return OracleReport("critic", ok=True, skipped=True,
                            detail=f"no module '{case.dut_name}'")
    widths = _decl_widths(module)
    triggers = sorted(p.name for p in module.ports
                      if p.direction == "input"
                      and widths.get(p.name, 1) >= 4)
    victims = sorted(p.name for p in module.ports
                     if p.direction == "output" and not p.is_reg)
    if not triggers or not victims:
        return OracleReport("critic", ok=True, skipped=True,
                            detail="no eligible trigger/victim port pair")
    if "trojan" in validate_rtl(case.dut_source).labels():
        return OracleReport("critic", ok=True, skipped=True,
                            detail="generated logic already matches the "
                                   "trojan shape")
    trigger, victim = triggers[0], victims[0]
    width = widths[trigger]
    value = _stable_seed(case.campaign_seed, case.index, "critic") \
        % (1 << width)
    shadow = f"{victim}_pre"
    mutant = re.sub(rf"\b{victim}\b", shadow, case.dut_source)
    mutant = re.sub(rf"\b{shadow}\b(?=\s*[,)])", victim, mutant, count=1)
    victim_width = widths.get(victim, 1)
    if victim_width > 1:
        shadow_decl = f"  wire [{victim_width - 1}:0] {shadow};"
        payload = f"({shadow} ^ 1)"
    else:
        shadow_decl = f"  wire {shadow};"
        payload = f"(~{shadow})"
    trojan_logic = (f"{shadow_decl}\n"
                    f"  assign {victim} = ({trigger} == {width}'d{value}) "
                    f"? {payload} : {shadow};\n")
    # The DUT is the last module in the source (leaf modules precede it
    # on hierarchical cases), so splice before the *last* endmodule.
    head, sep, tail = mutant.rpartition("endmodule")
    mutant = head + trojan_logic + sep + tail
    try:
        parse(mutant)
    except HdlError as exc:
        return OracleReport("critic", ok=True, skipped=True,
                            detail=f"mutant does not parse: {exc}")
    verdict = validate_rtl(mutant, case.dut_name)
    if "trojan" not in verdict.labels():
        return OracleReport(
            "critic", ok=False, kind="critic-missed-trojan",
            detail=f"mutant corrupts '{victim}' on {trigger}=="
                   f"{width}'d{value} but critic labels are "
                   f"{list(verdict.labels())}")
    return OracleReport("critic", ok=True)


ORACLES: dict[str, object] = {
    "synth": oracle_synth,
    "cache": oracle_cache,
    "parallel": oracle_parallel,
    "roundtrip": oracle_roundtrip,
    "compiled": oracle_compiled,
    "critic": oracle_critic,
}


def run_oracles(case: FuzzCase,
                names: tuple[str, ...] | None = None) -> list[OracleReport]:
    """Run the selected (default: all) oracles against one case."""
    selected = names or tuple(ORACLES)
    reports = []
    for name in selected:
        try:
            reports.append(ORACLES[name](case))
        except Exception as exc:  # oracle itself crashed: still a finding
            reports.append(OracleReport(
                name, ok=False, kind=f"oracle-crash:{type(exc).__name__}",
                detail=f"{type(exc).__name__}: {exc}"))
    return reports
