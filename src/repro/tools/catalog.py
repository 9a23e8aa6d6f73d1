"""The built-in tool catalogue: every repo capability behind one signature.

Each tool wraps an existing subsystem — nothing here reimplements EDA
logic.  The ``doc`` strings double as RAG passages: the planner retrieves
them from the tool index (:mod:`repro.tools.grounding`) to ground its next
action, so they are written the way a tool vendor documents a command:
what it does, what it needs, what it reports.
"""

from __future__ import annotations

import dataclasses

from ..obs import get_tracer
from .spec import (ToolArg, ToolContext, ToolCost, ToolOutcome, ToolSpec,
                   register_tool)


def _record(ctx: ToolContext, tool: str, ok: bool, detail: str,
            **artifacts) -> None:
    """Append to the shared design-state history (the provenance ledger the
    agent's steps also write, so reports render either way)."""
    if ctx.state is not None:
        ctx.state.record(tool, ok, detail, **artifacts)


def _top(ctx: ToolContext) -> str:
    """The design's top module name, from state or the bound problem."""
    if ctx.state is not None and ctx.state.module_name:
        return ctx.state.module_name
    return ctx.problem.module_name if ctx.problem is not None else ""


def _no_problem(ctx: ToolContext, tool: str) -> ToolOutcome | None:
    """Benchmark-bound tools fail cleanly when no problem is attached."""
    if ctx.problem is not None:
        return None
    detail = "no benchmark problem bound to this run"
    _record(ctx, tool, False, detail)
    return ToolOutcome(False, detail)


# -- generation ---------------------------------------------------------------

def autochip_rtl(ctx: ToolContext, args: dict,
                 name: str = "generate_rtl") -> ToolOutcome:
    """AutoChip generation into the RTL modality, recorded under ``name``
    (the agent's ``rtl_generation`` step shares this body)."""
    from ..flows.autochip import AutoChip, AutoChipConfig
    missing = _no_problem(ctx, name)
    if missing is not None:
        return missing
    feedback = args.get("feedback") or ""
    chip = AutoChip(ctx.llm, AutoChipConfig(k=int(args["k"]),
                                            depth=int(args["depth"])))
    outcome = chip.run(ctx.problem, initial_feedback=feedback)
    ctx.state.rtl_source = outcome.best_source
    ctx.state.module_name = ctx.problem.module_name
    _record(ctx, name, outcome.success, outcome.summary(),
            score=outcome.best_score, generations=outcome.generations)
    return ToolOutcome(
        outcome.success,
        f"generated RTL for '{ctx.problem.module_name}': {outcome.summary()}",
        {"score": outcome.best_score, "generations": outcome.generations,
         "evaluations": outcome.tool_evaluations})


register_tool(ToolSpec(
    name="generate_rtl",
    summary="LLM RTL generation with tool-feedback rounds (AutoChip)",
    doc="generate_rtl: produce Verilog RTL for the problem specification "
        "using candidate sampling and tool feedback iterations. Use when "
        "no RTL exists yet or the current RTL failed verification; pass "
        "accumulated lint or critic feedback to condition regeneration. "
        "Reports the best candidate score and writes the RTL modality.",
    fn=autochip_rtl,
    args=(ToolArg("k", int, "candidates per round", default=3),
          ToolArg("depth", int, "feedback iterations", default=3),
          ToolArg("feedback", str, "prior findings to condition on",
                  default="")),
    returns=("score", "generations", "evaluations"),
    requires=("spec",),
    cost=ToolCost(model_calls=True, est_evals=9, est_tokens=2000),
))


# -- static checks ------------------------------------------------------------

def _compile_rtl(ctx: ToolContext, args: dict) -> ToolOutcome:
    from ..hdl import elaborate, parse
    try:
        source = parse(ctx.state.rtl_source)
        elaborate(source, _top(ctx))
    except Exception as exc:
        _record(ctx, "compile_rtl", False, f"compile failed: {exc}")
        return ToolOutcome(False, f"compile failed: {exc}",
                           {"error": str(exc)})
    modules = sorted(source.modules)
    _record(ctx, "compile_rtl", True, f"compiled modules: {modules}")
    return ToolOutcome(True, f"compile clean; modules: {', '.join(modules)}",
                       {"modules": modules})


register_tool(ToolSpec(
    name="compile_rtl",
    summary="parse + elaborate the current RTL (syntax/structure check)",
    doc="compile_rtl: run the HDL front end — parse and elaborate the "
        "current RTL design. Cheap first check after generation; reports "
        "syntax or elaboration errors with messages suitable as repair "
        "feedback. Requires the rtl modality.",
    fn=_compile_rtl,
    returns=("modules", "error"),
    requires=("rtl",),
    cost=ToolCost(est_evals=1),
))


def lint_findings(ctx: ToolContext) -> tuple[list[str], str]:
    """Lint the current RTL into ``state.lint_warnings``.

    Returns the blocking findings and the parse error text ("" when the
    RTL parsed).  Shared by ``lint_rtl`` and the agent's static analysis.
    """
    from ..hdl import lint_source, parse
    try:
        source = parse(ctx.state.rtl_source)
    except Exception as exc:
        return [], str(exc)
    warnings = [str(w) for w in lint_source(source)]
    ctx.state.lint_warnings = warnings
    return [w for w in warnings
            if "LINT-UNDECL" in w or "LINT-MULTIDRIVE" in w], ""


def _lint_rtl(ctx: ToolContext, args: dict) -> ToolOutcome:
    blocking, error = lint_findings(ctx)
    if error:
        _record(ctx, "lint_rtl", False, f"parse failed: {error}")
        return ToolOutcome(False, f"lint aborted, parse failed: {error}",
                           {"error": error})
    warnings = ctx.state.lint_warnings
    detail = (f"{len(warnings)} warnings ({len(blocking)} blocking)")
    _record(ctx, "lint_rtl", not blocking, detail)
    shown = "; ".join(warnings[:4]) or "clean"
    return ToolOutcome(not blocking, f"lint: {detail}: {shown}",
                       {"warnings": warnings, "blocking": len(blocking)})


register_tool(ToolSpec(
    name="lint_rtl",
    summary="lint the current RTL; warnings become repair feedback",
    doc="lint_rtl: static analysis of the current RTL. Reports undeclared "
        "identifiers, multiple drivers, blocking/non-blocking misuse, "
        "inferred latches and width mismatches. Blocking findings fail "
        "the check; all warnings are stored as feedback for regeneration. "
        "Use doc_lookup to explain an unfamiliar lint code.",
    fn=_lint_rtl,
    returns=("warnings", "blocking"),
    requires=("rtl",),
    cost=ToolCost(est_evals=1),
))


def _critic_review(ctx: ToolContext, args: dict) -> ToolOutcome:
    from ..critic import Critic
    critic = Critic(flow="planner")
    verdict = critic.review([ctx.state.rtl_source],
                            ctx.state.module_name or None)[0]
    if verdict.ok:
        _record(ctx, "critic_review", True, "critic accepted the design")
        return ToolOutcome(True, "critic review: accepted",
                           {"verdict_ok": True})
    failures = [str(f) for f in verdict.failures]
    ctx.state.critic_verdicts.extend(failures)
    _record(ctx, "critic_review", False,
            f"critic rejected: {'; '.join(failures)}")
    return ToolOutcome(False, "critic review REJECTED: "
                       + "; ".join(failures),
                       {"verdict_ok": False, "failures": failures,
                        "stage": verdict.stage})


register_tool(ToolSpec(
    name="critic_review",
    summary="rule-based critic verdict on the current RTL",
    doc="critic_review: run the rule validators (lint, width, X-prop, "
        "vacuity, trojan mux, dead reset) over the current RTL. "
        "A rejection verdict names the "
        "failure taxonomy labels and is folded into the observation "
        "transcript as repair context. Good before sign-off.",
    fn=_critic_review,
    returns=("verdict_ok", "failures"),
    requires=("rtl",),
    cost=ToolCost(est_evals=1),
))


# -- verification -------------------------------------------------------------

def _run_testbench(ctx: ToolContext, args: dict) -> ToolOutcome:
    from ..bench.harness import evaluate_candidate
    missing = _no_problem(ctx, "run_testbench")
    if missing is not None:
        return missing
    tb = evaluate_candidate(ctx.problem, ctx.state.rtl_source)
    ctx.state.verified = tb.passed
    detail = f"testbench {tb.pass_count}/{tb.total_checks} checks"
    ctx.state.verification_detail = detail
    _record(ctx, "run_testbench", tb.passed, detail)
    feedback = tb.feedback() if hasattr(tb, "feedback") else ""
    return ToolOutcome(tb.passed, f"{detail}: "
                       f"{'PASS' if tb.passed else 'FAIL'}"
                       + (f" — {feedback[:160]}" if not tb.passed else ""),
                       {"passed": tb.passed, "pass_count": tb.pass_count,
                        "total_checks": tb.total_checks})


register_tool(ToolSpec(
    name="run_testbench",
    summary="golden-testbench sign-off for the current RTL",
    doc="run_testbench: simulate the current RTL against the problem's "
        "golden quality testbench and report PASS/FAIL check counts. "
        "This is the verification sign-off; failing output is localized "
        "feedback for regeneration. Requires the rtl modality.",
    fn=_run_testbench,
    returns=("passed", "pass_count", "total_checks"),
    requires=("rtl",),
    cost=ToolCost(est_evals=1),
))


def _crosscheck(ctx: ToolContext, args: dict) -> ToolOutcome:
    from ..flows.crosscheck import guided_debug, supports_crosscheck
    missing = _no_problem(ctx, "crosscheck")
    if missing is not None:
        return missing
    if not supports_crosscheck(ctx.problem):
        _record(ctx, "crosscheck", False,
                "no behavioural C model for this problem")
        return ToolOutcome(False, "crosscheck unavailable: no behavioural "
                           "C model exists for this problem",
                           {"supported": False})
    result = guided_debug(ctx.problem, ctx.llm, use_crosscheck=True,
                          max_iterations=int(args["max_iterations"]),
                          seed=ctx.seed)
    ctx.state.verified = ctx.state.verified or result.success
    _record(ctx, "crosscheck", result.success, result.summary())
    return ToolOutcome(result.success, f"cross-level debug: "
                       f"{result.summary()}",
                       {"supported": True, "success": result.success,
                        "iterations": result.iterations,
                        "model_faithful": result.model_faithful})


register_tool(ToolSpec(
    name="crosscheck",
    summary="find why the C model and the RTL disagree (Section VI)",
    doc="crosscheck: high-level guided debugging — drive the behavioural "
        "C model and the RTL with shared stimulus, localize the diverging "
        "input vector (expected vs actual), and repair the RTL against "
        "that localized feedback. The tool to use when the C model and "
        "RTL disagree or plain testbench feedback is too vague.",
    fn=_crosscheck,
    args=(ToolArg("max_iterations", int, "repair iterations", default=4),),
    returns=("success", "iterations", "model_faithful"),
    requires=("spec",),
    cost=ToolCost(model_calls=True, est_evals=6, est_tokens=1500),
))


def _fuzz_spot_check(ctx: ToolContext, args: dict) -> ToolOutcome:
    from ..hdl import parse
    from ..synth import check_against_simulation, synthesize_module
    from ..synth.flatten import flatten
    top = _top(ctx)
    try:
        source = parse(ctx.state.rtl_source)
        flat = flatten(source, top)
        synth = synthesize_module(flat)
    except Exception as exc:
        _record(ctx, "fuzz_spot_check", False, f"synthesis failed: {exc}")
        return ToolOutcome(False, f"spot check aborted: {exc}",
                           {"error": str(exc)})
    if synth.is_sequential:
        _record(ctx, "fuzz_spot_check", True,
                "sequential design: combinational CEC skipped")
        return ToolOutcome(True, "spot check skipped: sequential design "
                           "(combinational sim-vs-synth CEC only)",
                           {"skipped": True})
    vectors = int(args["vectors"])
    cec = check_against_simulation(synth, ctx.state.rtl_source, flat,
                                   vectors=vectors, seed=ctx.seed)
    ok = cec.equivalent
    detail = (f"{vectors} random vectors: "
              + ("equivalent" if ok else
                 f"MISMATCH on {', '.join(cec.mismatched_outputs)}"))
    _record(ctx, "fuzz_spot_check", ok, detail)
    return ToolOutcome(ok, f"sim-vs-synth spot check: {detail}",
                       {"equivalent": cec.equivalent, "vectors": vectors,
                        "mismatched_outputs": list(cec.mismatched_outputs)})


register_tool(ToolSpec(
    name="fuzz_spot_check",
    summary="random-vector sim-vs-synth equivalence spot check",
    doc="fuzz_spot_check: differential audit of the current RTL — "
        "synthesize it to an AIG and compare against event-driven "
        "simulation on random vectors (the fuzzing campaign's sim/synth "
        "oracle in miniature). Catches divergence and trojan-style "
        "behaviour the testbench does not exercise. Combinational only; "
        "sequential designs skip with a note.",
    fn=_fuzz_spot_check,
    args=(ToolArg("vectors", int, "random vectors to drive", default=64),),
    returns=("equivalent", "vectors"),
    requires=("rtl",),
    cost=ToolCost(est_evals=2),
))


# -- synthesis / QoR ----------------------------------------------------------

def synthesize_netlist(ctx: ToolContext, args: dict,
                       name: str = "synthesize") -> ToolOutcome:
    """Default-script synthesis into the netlist modality, recorded under
    ``name`` (the agent's ``synthesis`` step shares this body)."""
    from ..synth import optimize, synthesize_source
    from ..synth.optimize import DEFAULT_SCRIPT
    try:
        with get_tracer().span("synthesis.elaborate"):
            synthesized = synthesize_source(ctx.state.rtl_source,
                                            _top(ctx))
    except Exception as exc:
        _record(ctx, name, False, f"synthesis failed: {exc}")
        return ToolOutcome(False, f"synthesis failed: {exc}",
                           {"error": str(exc)})
    with get_tracer().span("synthesis.optimize"):
        optimized = optimize(synthesized.aig, DEFAULT_SCRIPT)
    synthesized.aig = optimized.aig
    ctx.state.netlist = synthesized
    ctx.state.aig_stats = optimized.aig.stats()
    _record(ctx, name, True, f"netlist: {ctx.state.aig_stats}",
            history=optimized.history)
    return ToolOutcome(True, f"synthesized netlist: {ctx.state.aig_stats}",
                       {"aig_stats": dict(ctx.state.aig_stats)})


register_tool(ToolSpec(
    name="synthesize",
    summary="logic synthesis of the current RTL to an optimized AIG",
    doc="synthesize: elaborate and synthesize the current RTL into an "
        "and-inverter-graph netlist, then run the default optimization "
        "script. Produces the netlist modality ppa_report needs. Re-run "
        "after any RTL change to refresh the netlist.",
    fn=synthesize_netlist,
    returns=("aig_stats",),
    requires=("rtl",),
    cost=ToolCost(est_evals=1),
))


def _ppa_report(ctx: ToolContext, args: dict) -> ToolOutcome:
    from ..synth import estimate_ppa
    report = estimate_ppa(ctx.state.netlist)
    ctx.state.ppa = report
    adp = report.area_um2 * report.delay_ns
    history = ctx.scratch.setdefault("ppa_history", [])
    history.append(adp)
    _record(ctx, "ppa_report", True, report.summary(), adp=adp)
    slowest = (f"critical path {report.logic_depth} levels, "
               f"delay {report.delay_ns:.2f}ns")
    return ToolOutcome(True, f"PPA: {report.summary()}; {slowest}; "
                       f"area-delay product {adp:.1f}",
                       {"area_um2": report.area_um2,
                        "delay_ns": report.delay_ns,
                        "power_uw": report.power_uw,
                        "adp": adp, "logic_depth": report.logic_depth})


register_tool(ToolSpec(
    name="ppa_report",
    summary="PPA estimation of the current netlist (area/delay/power)",
    doc="ppa_report: estimate power, performance and area of the current "
        "synthesized netlist, including the critical-path depth and delay "
        "(the slowest path). Run after synthesize; run again after "
        "tune_synthesis to measure the improvement. Reports the "
        "area-delay product used to compare netlists.",
    fn=_ppa_report,
    returns=("area_um2", "delay_ns", "power_uw", "adp", "logic_depth"),
    requires=("netlist",),
    cost=ToolCost(est_evals=1),
))


def resynthesize(rtl_source: str, top: str,
                 scripts: tuple[tuple[str, ...], ...], baseline) \
        -> tuple | None:
    """Synthesize ``top`` once and optimize it under each script; return
    ``(report, netlist, script)`` for the best area-delay product strictly
    below ``baseline``'s, or None.  The agent's ``qor`` step shares this
    body."""
    from ..synth import estimate_ppa, optimize, synthesize_source
    try:
        raw = synthesize_source(rtl_source, top)
    except Exception:
        return None
    best = None
    best_adp = baseline.area_um2 * baseline.delay_ns
    for script in scripts:
        try:
            with get_tracer().span("qor.script", script="+".join(script)):
                netlist = dataclasses.replace(
                    raw, aig=optimize(raw.aig, script).aig)
                report = estimate_ppa(netlist)
        except Exception:
            continue
        adp = report.area_um2 * report.delay_ns
        if adp < best_adp:
            best, best_adp = (report, netlist, script), adp
    return best


_TUNE_SCRIPTS: tuple[tuple[str, ...], ...] = (
    ("rewrite", "sweep"),
    ("balance", "rewrite", "balance", "sweep"),
    ("rewrite", "balance", "rewrite", "sweep"),
)


def _tune_synthesis(ctx: ToolContext, args: dict) -> ToolOutcome:
    from ..synth import estimate_ppa
    baseline = ctx.state.ppa or estimate_ppa(ctx.state.netlist)
    best_report, best_netlist, chosen = resynthesize(
        ctx.state.rtl_source, _top(ctx), _TUNE_SCRIPTS, baseline) \
        or (baseline, None, None)
    improved = chosen is not None
    if improved:
        ctx.state.netlist = best_netlist
        ctx.state.aig_stats = best_netlist.aig.stats()
        ctx.state.ppa = best_report
    before = baseline.area_um2 * baseline.delay_ns
    after = best_report.area_um2 * best_report.delay_ns
    detail = (f"script {'+'.join(chosen) if chosen else 'unchanged'}: "
              f"area-delay {before:.1f} -> {after:.1f}")
    _record(ctx, "tune_synthesis", improved, detail)
    ctx.scratch["tuned"] = True   # attempt made; "improved" says if it won
    if improved:
        ctx.scratch.setdefault("ppa_history", []).append(after)
    return ToolOutcome(improved, f"targeted synthesis fix: {detail}",
                       {"improved": improved, "adp_before": before,
                        "adp_after": after,
                        "script": "+".join(chosen) if chosen else ""})


register_tool(ToolSpec(
    name="tune_synthesis",
    summary="targeted re-synthesis: try scripts, keep the best area-delay",
    doc="tune_synthesis: the targeted fix for a slow or large netlist — "
        "re-synthesize the RTL under alternative optimization scripts "
        "(rewrite, balance, sweep orderings) and keep the configuration "
        "with the best area-delay product. Use after ppa_report flags the "
        "slowest path; follow with ppa_report to confirm the improvement.",
    fn=_tune_synthesis,
    returns=("improved", "adp_before", "adp_after", "script"),
    requires=("rtl", "netlist"),
    cost=ToolCost(est_evals=4),
))


# -- HLS ----------------------------------------------------------------------

def _hls_repair(ctx: ToolContext, args: dict) -> ToolOutcome:
    from ..hls.repair import HlsRepairEngine
    engine = HlsRepairEngine(ctx.llm, use_rag=True, seed=ctx.seed)
    result = engine.repair(ctx.c_source, ctx.c_top)
    ctx.c_source = result.repaired_source
    ctx.state.c_source = result.repaired_source
    ctx.state.schedule = result.schedule_after
    ok = result.success
    detail = (f"{len(result.issues_found)} issues found, "
              f"{len(result.issues_fixed)} fixed, "
              f"{len(result.issues_remaining)} remaining")
    _record(ctx, "hls_repair", ok, detail)
    sched = ""
    if result.schedule_after is not None:
        sched = (f"; schedule {result.schedule_after.latency_cycles} cycles")
    return ToolOutcome(ok, f"HLS repair "
                       f"{'succeeded' if ok else 'failed'}: {detail}{sched}",
                       {"success": ok,
                        "issues_found": len(result.issues_found),
                        "issues_fixed": len(result.issues_fixed),
                        "issues_remaining": len(result.issues_remaining),
                        "latency_cycles":
                            result.schedule_after.latency_cycles
                            if result.schedule_after else 0})


register_tool(ToolSpec(
    name="hls_repair",
    summary="RAG-grounded HLS incompatibility repair (Fig. 2)",
    doc="hls_repair: run the four-stage HLS repair framework on the C "
        "kernel — detect incompatibilities (malloc, recursion, unbounded "
        "loops, pointer parameters), retrieve correction templates, "
        "verify equivalence, and optimize pragmas. Use when a C kernel "
        "fails high-level synthesis; reports the repaired schedule "
        "latency. Requires the software (C source) modality.",
    fn=_hls_repair,
    returns=("success", "issues_found", "issues_fixed", "latency_cycles"),
    requires=("software",),
    cost=ToolCost(model_calls=True, est_evals=8, est_tokens=1200),
))


# -- documentation ------------------------------------------------------------

def _doc_lookup(ctx: ToolContext, args: dict) -> ToolOutcome:
    from ..llm.docqa import DocQa
    question = args["question"]
    answer = DocQa().ask(question, top_k=3)
    sources = [r.document.doc_id for r in answer.sources]
    ok = bool(answer.sources)
    ctx.scratch.setdefault("doc_citations", []).extend(sources)
    _record(ctx, "doc_lookup", ok,
            f"{question!r} -> {sources[0] if sources else 'no match'}")
    return ToolOutcome(ok, f"documentation [{', '.join(sources) or 'none'}]: "
                       f"{answer.text}",
                       {"sources": sources, "answer": answer.text})


register_tool(ToolSpec(
    name="doc_lookup",
    summary="retrieval-augmented QA over the EDA tool documentation",
    doc="doc_lookup: ask the tool-documentation QA index a question — "
        "lint diagnostics (LINT-LATCH, LINT-MULTIDRIVE), HLS error codes, "
        "pragma semantics, simulator limits. Returns the best passage "
        "with cited document ids. Use to understand an unfamiliar "
        "diagnostic before attempting a fix.",
    fn=_doc_lookup,
    args=(ToolArg("question", str, "the documentation question",
                  required=True),),
    returns=("sources", "answer"),
    cost=ToolCost(est_evals=0),
))


# -- terminal -----------------------------------------------------------------

def _finish(ctx: ToolContext, args: dict) -> ToolOutcome:
    note = args.get("note") or "goal satisfied"
    ctx.scratch["finished"] = True
    _record(ctx, "finish", True, note)
    return ToolOutcome(True, f"finish: {note}", {"note": note})


register_tool(ToolSpec(
    name="finish",
    summary="declare the goal satisfied and stop the plan loop",
    doc="finish: terminal action — declare the request satisfied and end "
        "the plan/act/observe loop. Emit only after the goal's required "
        "evidence exists (verification passed, report produced, repair "
        "verified).",
    fn=_finish,
    args=(ToolArg("note", str, "closing note", default="goal satisfied"),),
    returns=("note",),
    cost=ToolCost(est_evals=0),
))
