"""The six steps of the unified EDA agent's fixed plan (Fig. 1 / Fig. 6).

Each step is a plain function with the tool signature
``(ToolContext, args) -> ToolOutcome`` that consumes and enriches the
shared :class:`~repro.core.state.DesignState`.  The steps map one-to-one
onto the chip design flow of Fig. 1: specification → RTL generation →
static analysis → verification → logic synthesis → QoR estimation, with
the LLM assisting where the paper places it.  They record under the stage
names the golden fixtures pin, and they stay out of the tool registry, so
the planner's grounding index never sees them.

Every step reads the same ``args``: ``enable_feedback`` (the E9
cross-stage feedback ablation knob), ``k`` and ``depth`` (AutoChip
candidates and rounds).
"""

from __future__ import annotations

from ..bench.harness import evaluate_candidate
from ..flows.assertgen import assertion_quality
from ..obs import get_tracer
from ..synth import estimate_ppa, optimize
from ..synth.optimize import DEFAULT_SCRIPT
from ..tools import ToolContext, ToolOutcome
from ..tools.catalog import autochip_rtl, lint_findings, synthesize_netlist


def _done(ctx: ToolContext, stage: str, ok: bool, detail: str,
          **artifacts) -> ToolOutcome:
    ctx.state.record(stage, ok, detail, **artifacts)
    return ToolOutcome(ok, detail)


def specification(ctx: ToolContext, args: dict) -> ToolOutcome:
    """SpecLLM-style spec review: normalize and enrich the specification."""
    clarity = ctx.llm.profile.spec_comprehension
    notes = [ctx.state.spec.strip()]
    if clarity > 0.5:
        notes.append(f"[interface] implement module "
                     f"'{ctx.problem.module_name}' exactly as named.")
    if clarity > 0.7 and ctx.problem.sequential:
        notes.append("[timing] state updates on the rising clock edge; "
                     "reset is synchronous unless stated otherwise.")
    ctx.state.enriched_spec = "\n".join(notes)
    return _done(ctx, "specification", True,
                 f"spec enriched ({len(notes) - 1} review notes)")


def rtl_generation(ctx: ToolContext, args: dict) -> ToolOutcome:
    """LLM RTL generation with tool feedback (AutoChip inside the agent)."""
    state, enabled = ctx.state, args["enable_feedback"]
    # On a reopen, downstream steps have already produced lint findings;
    # thread them into the regeneration prompt instead of discarding them.
    # First pass: no warnings, empty feedback, identical prompt to before.
    feedback = ""
    if enabled and state.lint_warnings:
        feedback = ("static analysis of the previous attempt reported:\n"
                    + "\n".join(state.lint_warnings[:8]))
    # Critic rejection verdicts (populated only when REPRO_CRITIC=1)
    # ride along as repair context; with the critic off the list is
    # empty and the prompt is byte-identical to the pre-critic path.
    if enabled and state.critic_verdicts:
        rejected = "\n".join(state.critic_verdicts[:6])
        feedback = (feedback + "\n" if feedback else "") \
            + "the critic rejected the previous attempt:\n" + rejected
    return autochip_rtl(ctx, {"k": args["k"],
                              "depth": args["depth"] if enabled else 1,
                              "feedback": feedback}, "rtl_generation")


def static_analysis(ctx: ToolContext, args: dict) -> ToolOutcome:
    """Lint the RTL (plus the critic, when on); findings feed regeneration."""
    state = ctx.state
    if not state.rtl_source:
        return _done(ctx, "static_analysis", False, "no RTL to lint")
    blocking, error = lint_findings(ctx)
    if error:
        return _done(ctx, "static_analysis", False, f"parse failed: {error}")
    from ..critic import resolve_critic
    critic = resolve_critic("agent")
    if critic is not None:
        verdict = critic.review([state.rtl_source],
                                ctx.problem.module_name)[0]
        if not verdict.ok:
            # Rejection verdicts get their own channel (they thread into
            # regeneration feedback and planner observations as critic
            # context, not as lint findings) but still block.
            extra = [str(f) for f in verdict.failures]
            state.critic_verdicts.extend(extra)
            blocking = blocking + extra
    return _done(ctx, "static_analysis", not blocking,
                 f"{len(state.lint_warnings) + len(state.critic_verdicts)}"
                 f" warnings ({len(blocking)} blocking)")


def verification(ctx: ToolContext, args: dict) -> ToolOutcome:
    """Golden-testbench sign-off plus AssertLLM-style property mining."""
    state, tracer = ctx.state, get_tracer()
    with tracer.span("verification.testbench") as sp:
        tb = evaluate_candidate(ctx.problem, state.rtl_source)
        sp.set(passed=tb.passed, checks=tb.total_checks)
    with tracer.span("verification.assertions") as sp:
        assertions = assertion_quality(ctx.problem, ctx.llm, seed=ctx.seed,
                                       n_assertions=6, n_mutants=3)
        sp.set(refined=assertions.refined)
    state.verified = tb.passed
    state.assertions_valid = assertions.refined
    state.verification_detail = (f"testbench {tb.pass_count}/"
                                 f"{tb.total_checks} checks; "
                                 f"{assertions.refined} assertions kept")
    return _done(ctx, "verification", tb.passed, state.verification_detail)


def synthesis(ctx: ToolContext, args: dict) -> ToolOutcome:
    """Logic synthesis to an optimized AIG netlist."""
    return synthesize_netlist(ctx, args, "synthesis")


_QOR_SCRIPTS = (
    DEFAULT_SCRIPT,
    ("rewrite", "sweep"),
    ("balance", "rewrite", "balance", "sweep"),
)


def qor(ctx: ToolContext, args: dict) -> ToolOutcome:
    """PPA estimation with closed-loop script selection when feedback is on."""
    state = ctx.state
    if state.netlist is None:
        return _done(ctx, "qor", False, "no netlist")
    best_report = estimate_ppa(state.netlist)
    chosen = "as-synthesized"
    if args["enable_feedback"]:
        # Closed-loop QoR refinement: try alternative synthesis scripts
        # and keep the best area-delay product.
        from ..synth import synthesize_source
        for script in _QOR_SCRIPTS:
            try:
                with get_tracer().span("qor.script",
                                       script="+".join(script)):
                    candidate = synthesize_source(state.rtl_source,
                                                  state.module_name)
                    candidate.aig = optimize(candidate.aig, script).aig
                    report = estimate_ppa(candidate)
            except Exception:
                continue
            if report.area_um2 * report.delay_ns \
                    < best_report.area_um2 * best_report.delay_ns:
                best_report = report
                state.netlist = candidate
                chosen = "+".join(script)
    state.ppa = best_report
    return _done(ctx, "qor", True,
                 f"{best_report.summary()} (script: {chosen})")
