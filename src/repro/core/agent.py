"""The unified LLM-EDA agent (Fig. 6).

Runs a design through Fig. 6's six steps as a scripted plan on the agent
loop (:func:`~repro.core.planner.run_plan_loop`), with cross-stage
feedback: a downstream failure can reopen an upstream step (a failed
static analysis or verification → regenerate RTL with the accumulated
feedback), and QoR estimation closes the loop on synthesis-script choice.
The ablation knob ``enable_feedback`` is experiment E9's subject.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bench.problems import Problem
from ..engine import Budget, RunRecord
from ..exec import SweepScheduler
from ..llm.client import LLMClient, resolve_client
from ..llm.model import SimulatedLLM
from ..obs import flush_metrics, get_tracer
from ..tools import ToolContext, ToolOutcome
from . import steps as fig6
from .planner import PlanStep, run_plan_loop
from .policy import PlanAction
from .state import DesignState


@dataclass
class AgentConfig:
    model: str | SimulatedLLM | LLMClient = "gpt-4o"
    enable_feedback: bool = True
    max_reopens: int = 2        # upstream re-entries on downstream failure
    autochip_k: int = 3
    autochip_depth: int = 3


class ScriptedPolicy:
    """Fig. 6's fixed pipeline as a policy: the six steps, in order.

    Owns the reopen rule: only a failed ``static_analysis`` or
    ``verification`` reopens ``rtl_generation``, at most ``max_reopens``
    times, each on a client derived with a fresh seed (the accumulated
    design state keeps the evidence).  With feedback off nothing reopens.
    Any other failure stops the run.
    """

    PLAN = (("specification", fig6.specification),
            ("rtl_generation", fig6.rtl_generation),
            ("static_analysis", fig6.static_analysis),
            ("verification", fig6.verification),
            ("synthesis", fig6.synthesis),
            ("qor", fig6.qor))
    REOPENED_BY = ("static_analysis", "verification")

    def __init__(self, config: AgentConfig):
        self.config = config
        self.args = {"enable_feedback": config.enable_feedback,
                     "k": config.autochip_k, "depth": config.autochip_depth}
        self.index = 0
        self.reopens = 0
        self.attempts: dict[str, int] = {}

    def next_action(self, ctx: ToolContext, steps: list[PlanStep],
                    round_no: int) -> PlanAction:
        return PlanAction(self.PLAN[self.index][0], self.args)

    def act(self, ctx: ToolContext, action: PlanAction) -> ToolOutcome:
        name, fn = self.PLAN[self.index]
        self.attempts[name] = self.attempts.get(name, 0) + 1
        with get_tracer().span(f"stage.{name}",
                               attempt=self.attempts[name]) as sp:
            outcome = fn(ctx, action.args)
            sp.set(success=outcome.ok)
        return outcome

    def observe(self, ctx: ToolContext,
                steps: list[PlanStep]) -> str | None:
        last = steps[-1]
        if last.ok:
            self.index += 1
            return "complete" if self.index == len(self.PLAN) else None
        cfg = self.config
        if (cfg.enable_feedback and self.reopens < cfg.max_reopens
                and last.tool in self.REOPENED_BY):
            self.reopens += 1
            ctx.seed += 1000
            ctx.llm = ctx.llm.derive(ctx.seed)
            self.index = 1          # back to rtl_generation
            return None
        return "stage-failure"


@dataclass
class AgentRunReport:
    problem_id: str
    model: str
    state: DesignState
    success: bool
    reopens: int = field(default=0, kw_only=True)
    total_tokens: int = field(default=0, kw_only=True)

    def stage_table(self) -> list[tuple[str, bool, str]]:
        return [(r.stage, r.success, r.detail) for r in self.state.history]

    def summary(self) -> str:
        status = "COMPLETE" if self.success else "INCOMPLETE"
        stages = ", ".join(f"{r.stage}:{'ok' if r.success else 'FAIL'}"
                           for r in self.state.history)
        return f"{self.problem_id} [{self.model}] {status} | {stages}"


class EdaAgent:
    """Runs a design through the full spec-to-QoR pipeline."""

    def __init__(self, config: AgentConfig | None = None, seed: int = 0):
        self.config = config or AgentConfig()
        self.seed = seed

    def run(self, problem: Problem,
            budget: Budget | None = None) -> AgentRunReport:
        cfg = self.config
        llm = resolve_client(cfg.model, seed=self.seed)
        state = DesignState(spec=problem.spec)
        ctx = ToolContext(llm=llm, seed=self.seed, problem=problem,
                          state=state)
        policy = ScriptedPolicy(cfg)
        record = RunRecord(flow="agent", problem_id=problem.problem_id,
                           model=llm.profile.name)

        tracer = get_tracer()
        with tracer.span("agent.run", problem=problem.problem_id,
                         model=llm.profile.name, seed=self.seed,
                         feedback=cfg.enable_feedback) as run_span:
            run_plan_loop(policy, ctx, record, budget=budget)
            # "complete" means the last attempt of every step passed.
            success = record.stop_reason == "complete" and state.verified
            run_span.set(success=success, reopens=policy.reopens,
                         tokens=record.total_tokens)
        flush_metrics(tracer)
        report = AgentRunReport(problem.problem_id, llm.profile.name, state,
                                success, reopens=policy.reopens,
                                total_tokens=record.total_tokens)
        report.run_record = record
        return report


@dataclass
class AgentSweep:
    reports: list[AgentRunReport] = field(default_factory=list)

    @property
    def end_to_end_rate(self) -> float:
        if not self.reports:
            return 0.0
        return sum(r.success for r in self.reports) / len(self.reports)

    def stage_success_rates(self) -> dict[str, float]:
        counts: dict[str, list[int]] = {}
        for report in self.reports:
            seen: dict[str, bool] = {}
            for record in report.state.history:
                # Last attempt of each stage wins.
                seen[record.stage] = record.success
            for stage, ok in seen.items():
                counts.setdefault(stage, []).append(int(ok))
        return {stage: sum(v) / len(v) for stage, v in sorted(counts.items())}


def agent_run_task(payload: tuple) -> AgentRunReport:
    """``(problem, model, enable_feedback, seed) -> AgentRunReport`` — one
    cell of an agent sweep."""
    problem, model, enable_feedback, seed = payload
    agent = EdaAgent(AgentConfig(model=model,
                                 enable_feedback=enable_feedback),
                     seed=seed)
    return agent.run(problem)


def run_agent_sweep(problems: list[Problem],
                    model: str | SimulatedLLM | LLMClient = "gpt-4o",
                    enable_feedback: bool = True, *,
                    seeds: tuple[int, ...] = (0, 1),
                    jobs: int | str | None = None) -> AgentSweep:
    """Run the agent over a problem/seed grid.

    ``jobs`` fans independent (problem, seed) cells over a worker pool when
    ``model`` is a plain profile name; client instances run serially (they
    are not picklable).  Results keep the seed-major serial ordering.
    """
    cells = [(problem, model, enable_feedback, seed)
             for seed in seeds for problem in problems]
    if isinstance(model, str):
        return AgentSweep(SweepScheduler(jobs).map(agent_run_task, cells))
    sweep = AgentSweep()
    for problem, _, _, seed in cells:
        agent = EdaAgent(AgentConfig(model=model,
                                     enable_feedback=enable_feedback),
                         seed=seed)
        sweep.reports.append(agent.run(problem))
    return sweep
