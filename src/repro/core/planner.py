"""The agent loop: plan/act/observe, with a policy choosing each action.

This is the ChatEDA shape (PAPERS.md) the paper's agent half describes —
task planning and tool execution in one loop, where a fixed pipeline is
just a fixed plan.  :func:`run_plan_loop` is the only agent loop in the
repo; each round a *policy* supplies the next action:

* :class:`GroundedPolicy` (the :class:`PlannerAgent` default) decomposes a
  natural-language goal into tool invocations:

  1. **ground** — rank the registered tools against the goal plus the
     most recent observation via the RAG tool-doc index, gate on each
     tool's declared state preconditions, and render the shortlist (with
     its citations) into the planning prompt;
  2. **plan** — the seeded planner head (:mod:`repro.core.policy`) emits
     one structured next-action;
  3. **act** — the tool runs through the registry's validation seam;
  4. **observe** — the outcome text (or the validation error, for
     malformed or premature actions) is folded into the transcript the
     next round's grounding query and prompt read.  Critic rejection
     verdicts land in ``DesignState.critic_verdicts`` and thread into
     regeneration feedback.

* :class:`~repro.core.agent.ScriptedPolicy` (the
  :class:`~repro.core.agent.EdaAgent` policy) emits Fig. 6's six steps in
  order and reopens RTL generation when a downstream check fails.

Each round runs on the :class:`~repro.engine.LoopKernel` and charges the
round's model spend to the run record, so token budgets bind.

Determinism: grounding is TF-IDF over fixed text, the planner head is a
pure function of (prompt, seed, profile), and every tool honours the
registry's purity contract — so a whole planner run is a pure function of
(goal, problem, model, seed), byte-identical across scheduler fan-out
(DESIGN.md §13).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..bench.problems import Problem
from ..engine import Budget, LoopKernel, RoundState, RunRecord
from ..llm.client import LLMClient, resolve_client
from ..llm.model import SimulatedLLM
from ..obs import flush_metrics, get_tracer
from ..tools import (ToolContext, ToolError, ToolOutcome, build_tool_index,
                     get_tool, list_tools)
from .policy import (PlanAction, SimulatedPlanner, parse_action,
                     render_candidate)
from .state import DesignState

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .agent import ScriptedPolicy

#: Tools that are sensible to repeat even after they once succeeded
#: (reports and checks re-measure; generation/tuning change state).
_REPEATABLE = ("run_testbench", "ppa_report", "lint_rtl", "compile_rtl",
               "doc_lookup", "critic_review", "fuzz_spot_check", "finish")

_OBS_TAIL = 3          # observations rendered into the planning prompt
_SHORTLIST = 4         # candidates offered per round
MAX_STEPS = 12         # planner rounds per run when the caller sets none


def _tokens(text: str) -> int:
    """The 4-chars-per-token approximation every simulated flow uses."""
    return max(1, len(text) // 4)


@dataclass
class PlanStep:
    """One plan/act/observe round in the transcript."""

    round_no: int
    tool: str
    args: dict
    ok: bool
    observation: str
    citations: tuple[str, ...] = ()
    rationale: str = ""
    malformed: bool = False

    def line(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return f"[{self.round_no}] {self.tool or '<malformed>'}: {status}"


@dataclass
class PlannerRunReport:
    """Outcome of one planner-agent run."""

    goal: str
    problem_id: str
    model: str
    state: DesignState
    success: bool
    steps: list[PlanStep] = field(default_factory=list)
    stop_reason: str = ""
    total_tokens: int = field(default=0, kw_only=True)

    @property
    def tool_sequence(self) -> list[str]:
        return [s.tool for s in self.steps if s.tool and not s.malformed]

    def transcript(self) -> str:
        return "\n".join(f"{s.line()} {s.observation}" for s in self.steps)

    def summary(self) -> str:
        status = "PASS" if self.success else "FAIL"
        return (f"{self.problem_id or self.goal[:40]} [{self.model}] "
                f"{status} in {len(self.steps)} step(s): "
                f"{' -> '.join(self.tool_sequence) or '-'}")


def run_plan_loop(policy: GroundedPolicy | ScriptedPolicy,
                  ctx: ToolContext, record: RunRecord, *,
                  budget: Budget | None = None,
                  max_rounds: int | None = None) -> list[PlanStep]:
    """The agent loop (see module docstring); returns the transcript.

    Each round the policy's ``next_action(ctx, steps, round_no)`` supplies
    a :class:`PlanAction`, its ``act(ctx, action)`` runs it, and its
    ``observe(ctx, steps)`` reads the new step and returns a stop reason
    or ``None``.  A round charges the spend of the client it started on,
    so ``observe`` is the only place a policy may move the context to a
    derived client.  ``finish`` is the terminal action, not a tool
    evaluation.
    """
    steps: list[PlanStep] = []

    def step(kstate: RoundState, _sp) -> str | None:
        client = ctx.llm
        spent = client.usage.total_tokens
        action = policy.next_action(ctx, steps, kstate.round_no)
        if action.malformed:
            ok, obs = False, f"invalid action: {action.error}"
        else:
            outcome = policy.act(ctx, action)
            ok, obs = outcome.ok, outcome.observation
            if action.tool != "finish":
                record.tool_evaluations += 1
        steps.append(PlanStep(kstate.round_no, action.tool,
                              dict(action.args), ok, obs,
                              citations=action.citations,
                              rationale=action.rationale,
                              malformed=action.malformed))
        record.charge_tokens(client.usage.total_tokens - spent)
        return policy.observe(ctx, steps)

    # No per-round kernel span (span_name=None): each policy emits its own
    # span structure under the caller's root span.
    LoopKernel(step=step, record=record, budget=budget,
               max_rounds=max_rounds, span_name=None).run()
    return steps


class GroundedPolicy:
    """The planner's policy: ground a shortlist, then ask the planner head
    (``goal_check`` as for :class:`PlannerAgent`)."""

    def __init__(self, goal: str, ctx: ToolContext,
                 goal_check: Callable[[ToolContext], bool] | None = None):
        self.goal = goal
        self.goal_check = goal_check
        self.head = SimulatedPlanner(ctx.llm.profile, seed=ctx.seed)
        problem = ctx.problem
        self.tool_index = build_tool_index(
            list_tools(), spec_text=goal + " " + (problem.spec
                                                  if problem else ""))

    # -- grounding ------------------------------------------------------------

    def satisfied(self, ctx: ToolContext) -> bool:
        if self.goal_check is not None:
            return bool(self.goal_check(ctx))
        return ctx.state.verified

    @staticmethod
    def _feedback_text(ctx: ToolContext) -> str:
        """Accumulated findings regeneration should condition on."""
        parts = list(ctx.state.lint_warnings[:6])
        parts += ctx.state.critic_verdicts[:6]
        if ctx.state.verification_detail and not ctx.state.verified:
            parts.append(ctx.state.verification_detail)
        return "\n".join(parts)

    def _candidate_args(self, ctx: ToolContext, tool: str,
                        goal: str, last_obs: str) -> dict:
        if tool == "generate_rtl":
            feedback = self._feedback_text(ctx)
            return {"feedback": feedback} if feedback else {}
        if tool == "doc_lookup":
            # Lead with the diagnostic code from the last observation, the
            # way a user pastes a tool error into the QA box.
            for token in last_obs.replace(";", " ").replace(":", " ").split():
                if token.startswith(("LINT-", "HLS0")):
                    return {"question": f"what does {token} mean"}
            return {"question": goal}
        return {}

    def _shortlist(self, ctx: ToolContext,
                   steps: list[PlanStep]) -> list[tuple]:
        """Ranked, precondition-gated (tool, args, citations) candidates.

        Retrieval relevance is the base score; deterministic progress
        priors (what modalities exist, what the goal still lacks) keep
        the shortlist honest when TF-IDF alone is ambiguous.
        """
        state, goal = ctx.state, self.goal
        last_obs = steps[-1].observation if steps else ""
        last_tool = steps[-1].tool if steps else ""
        goal_l = goal.lower()
        done = self.satisfied(ctx)
        succeeded = {s.tool for s in steps if s.ok and not s.malformed}

        ranked = self.tool_index.rank(goal + " " + last_obs)
        scored = []
        for g in ranked:
            spec = get_tool(g.tool)
            if spec.missing_state(ctx):
                continue
            if g.tool in succeeded and g.tool not in _REPEATABLE:
                # Re-running a successful mutator is allowed only when the
                # evidence says its product went stale (failed verify).
                if not (g.tool == "generate_rtl" and not state.verified):
                    continue
            score = g.score
            if g.tool == "finish":
                score += 2.0 if done else -2.0
            if done and g.tool != "finish":
                score -= 0.5
            if g.tool == "generate_rtl" and not state.rtl_source:
                score += 1.0
            if g.tool == "hls_repair" and ctx.c_source:
                score += 0.8
            if g.tool == "run_testbench" and state.rtl_source \
                    and not state.verified:
                score += 0.45
            if g.tool == "synthesize" and state.rtl_source \
                    and state.netlist is None \
                    and any(w in goal_l for w in ("synth", "ppa", "area",
                                                  "delay", "netlist")):
                score += 0.6
            if g.tool == "ppa_report" and state.netlist is not None \
                    and state.ppa is None:
                score += 0.6
            if g.tool == "tune_synthesis" and state.ppa is not None \
                    and not ctx.scratch.get("tuned") \
                    and any(w in goal_l for w in ("fix", "improve", "slow",
                                                  "optimi", "tune")):
                score += 0.8
            if g.tool == "ppa_report" and ctx.scratch.get("tuned") \
                    and last_tool == "tune_synthesis":
                score += 1.0
            if g.tool == "crosscheck" \
                    and any(w in goal_l for w in ("disagree", "diverge",
                                                  "c model", "mismatch")):
                score += 0.8
            if g.tool == "doc_lookup" \
                    and ("LINT-" in last_obs or "HLS0" in last_obs):
                score += 0.5
            if g.tool == last_tool and not (steps and steps[-1].ok):
                score -= 0.3   # don't hammer a tool that just failed
            scored.append((score, g.tool, g.citations))
        scored.sort(key=lambda item: (-item[0], item[1]))
        return [(tool, self._candidate_args(ctx, tool, goal, last_obs), cites)
                for _, tool, cites in scored[:_SHORTLIST]]

    def _prompt(self, ctx: ToolContext, steps: list[PlanStep],
                shortlist: list[tuple]) -> str:
        lines = [f"GOAL: {self.goal}",
                 "STATE: " + ",".join(ctx.state.modalities_present())
                 + (",verified" if ctx.state.verified else "")]
        for step in steps[-_OBS_TAIL:]:
            lines.append(f"OBSERVATION {step.round_no}: "
                         f"{step.line()} {step.observation[:200]}")
        lines.append("Choose the next action from the grounded candidates:")
        for rank, (tool, args, citations) in enumerate(shortlist, start=1):
            lines.append(render_candidate(rank, tool, args, citations,
                                          get_tool(tool).summary))
        return "\n".join(lines)

    # -- plan / act / observe -------------------------------------------------

    def next_action(self, ctx: ToolContext, steps: list[PlanStep],
                    round_no: int) -> PlanAction:
        shortlist = self._shortlist(ctx, steps)
        prompt = self._prompt(ctx, steps, shortlist)
        with get_tracer().span("planner.plan", round=round_no):
            completion = self.head.plan(prompt)
        ctx.llm.usage.record(_tokens(prompt), _tokens(completion))
        return parse_action(completion)

    def act(self, ctx: ToolContext, action: PlanAction) -> ToolOutcome:
        if action.tool == "finish":
            done = self.satisfied(ctx)
            note = (action.args.get("note")
                    or ("goal satisfied" if done
                        else "stopping without evidence"))
            return ToolOutcome(done, f"finish: {note}")
        try:
            return get_tool(action.tool).invoke(ctx, action.args)
        except (ToolError, KeyError) as exc:
            return ToolOutcome(False, f"invalid action: {exc}")

    def observe(self, ctx: ToolContext,
                steps: list[PlanStep]) -> str | None:
        last = steps[-1]
        return "finish" if last.tool == "finish" and not last.malformed \
            else None


class PlannerAgent:
    """Plan/act/observe over the tool registry (see module docstring).

    ``goal_check(ctx) -> bool`` decides success (and gates the ``finish``
    candidate); without one, a verified design counts as done.
    """

    def __init__(self, model: str | SimulatedLLM | LLMClient = "gpt-4o",
                 seed: int = 0, max_steps: int | None = None,
                 goal_check: Callable[[ToolContext], bool] | None = None):
        self.model = model
        self.seed = seed
        self.max_steps = max_steps
        self.goal_check = goal_check

    def run(self, goal: str, problem: Problem | None = None, *,
            c_source: str = "", c_top: str = "",
            budget: Budget | None = None) -> PlannerRunReport:
        llm = resolve_client(self.model, seed=self.seed)
        state = DesignState(spec=problem.spec if problem else goal)
        state.module_name = problem.module_name if problem else ""
        ctx = ToolContext(llm=llm, seed=self.seed, problem=problem,
                          state=state, c_source=c_source, c_top=c_top)
        policy = GroundedPolicy(goal, ctx, self.goal_check)
        record = RunRecord(flow="planner",
                           problem_id=problem.problem_id if problem else "",
                           model=llm.profile.name)

        tracer = get_tracer()
        with tracer.span("planner.run", goal=goal[:60],
                         problem=record.problem_id, model=record.model,
                         seed=self.seed) as run_span:
            steps = run_plan_loop(
                policy, ctx, record, budget=budget,
                max_rounds=self.max_steps if self.max_steps is not None
                else MAX_STEPS)
            success = policy.satisfied(ctx)
            run_span.set(success=success, steps=len(steps),
                         tokens=record.total_tokens)
        flush_metrics(tracer)
        report = PlannerRunReport(
            goal=goal, problem_id=record.problem_id, model=record.model,
            state=state, success=success, steps=steps,
            stop_reason=record.stop_reason,
            total_tokens=record.total_tokens)
        report.run_record = record
        return report
