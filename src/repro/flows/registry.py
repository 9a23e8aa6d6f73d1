"""Flow registry: one catalogue of every paper flow and how to launch it.

Each entry maps a stable flow name to its entry point, result type, and a
uniform runner adapter so tooling (the ``python -m repro.flows`` CLI, the
signature-conformance tests, sweep dashboards) can launch any flow without
knowing its module.  Entry points follow the unified signature contract:
``model`` accepts a profile name, a :class:`~repro.llm.model.SimulatedLLM`,
or any :class:`~repro.llm.client.LLMClient`; ``seed``/``seeds`` and ``jobs``
are keyword-only.

Launches are typed: a :class:`RunRequest` carries everything a runner
needs (problems, model, seed, jobs, budget, store journal) as keyword-only
fields, so adding a launch parameter no longer ripples through nine
positional lambdas — runners read the fields they understand and ignore
the rest.  ``FlowSpec.run`` keeps the ergonomic keyword signature and
builds the request; ``FlowSpec.launch`` takes a prebuilt request.  When
the request carries a ``store`` journal, the whole launch runs inside
:func:`repro.store.campaign_scope`, so every sweep the flow schedules
checkpoints its cells to the artifact store (and replays them on resume).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..bench.problems import Problem
from ..engine import Budget
from ..store import CampaignJournal, campaign_scope
from .assertgen import AssertionSweep, assertion_sweep
from .autobench import AutoBenchSweep, autobench_sweep
from .autochip import AutoChipResult, run_autochip
from .chipchat import TapeoutReport, run_chipchat_tapeout
from .crosscheck import GuidedDebugSweep, guided_debug_sweep
from .hierarchical import HierarchicalSweep, hierarchical_sweep
from .security import detection_sweep
from ..tasks import TaskSuiteResult, run_task_suite
from .structured import StructuredSweep, run_structured_sweep
from .vrank import VRankSweep, vrank_sweep


@dataclass(frozen=True, kw_only=True)
class RunRequest:
    """One typed flow launch.

    Keyword-only by design: call sites name every field, so reordering or
    extending the request never silently shifts an argument.  ``model``
    follows the unified contract (profile name, ``SimulatedLLM``, or
    ``LLMClient``); ``budget`` only applies to flows whose spec declares
    ``accepts_budget``; ``store`` is an optional campaign journal that
    turns the launch into a checkpointed (and resumable) campaign.
    """

    problems: list[Problem]
    model: Any = "gpt-4"
    seed: int = 0
    jobs: int | str | None = None
    budget: Budget | None = None
    store: CampaignJournal | None = None
    # Task-suite flows (the planner agent) select scenarios by id rather
    # than by benchmark problem; empty means the whole suite.
    tasks: tuple[str, ...] = ()

    def fingerprint_parts(self) -> tuple:
        """The launch coordinates that determine results (jobs excluded:
        worker count never changes a deterministic sweep's output)."""
        return (tuple(p.problem_id for p in self.problems),
                str(self.model), self.seed, self.budget, self.tasks)


@dataclass(frozen=True)
class FlowSpec:
    """One registered flow: where it lives and how to launch it."""

    name: str
    entry: Callable[..., Any]
    result_type: type
    summary: str
    uses_model: bool = True
    # Per-run Budget support: flows whose entry point threads a
    # :class:`repro.engine.Budget` through to the loop kernel.
    accepts_budget: bool = False
    # Uniform launcher: adapts the typed request to per-flow signature
    # quirks (single-problem flows, seed tuples, ...).
    runner: Callable[[RunRequest], Any] | None = field(default=None)

    def launch(self, request: RunRequest) -> Any:
        """Run the flow for a prebuilt :class:`RunRequest`."""
        assert self.runner is not None
        if request.budget is not None and not self.accepts_budget:
            raise ValueError(
                f"flow {self.name!r} does not support --budget flags")
        with campaign_scope(request.store):
            return self.runner(request)

    def run(self, problems: list[Problem], model: Any = "gpt-4", *,
            seed: int = 0, jobs: int | str | None = None,
            budget: Budget | None = None,
            store: CampaignJournal | None = None) -> Any:
        """Keyword-friendly wrapper that builds the request."""
        return self.launch(RunRequest(
            problems=problems, model=model, seed=seed, jobs=jobs,
            budget=budget, store=store))


_REGISTRY: dict[str, FlowSpec] = {}


def _register(spec: FlowSpec) -> None:
    _REGISTRY[spec.name] = spec


def get_flow(name: str) -> FlowSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown flow {name!r}; known flows: {known}") \
            from None


def list_flows() -> list[FlowSpec]:
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def run_flow(name: str, problems: list[Problem], model: Any = "gpt-4", *,
             seed: int = 0, jobs: int | str | None = None,
             budget: Budget | None = None,
             store: CampaignJournal | None = None) -> Any:
    """Launch a registered flow through its uniform runner adapter."""
    return get_flow(name).run(problems, model, seed=seed, jobs=jobs,
                              budget=budget, store=store)


_register(FlowSpec(
    name="autochip",
    entry=run_autochip,
    result_type=AutoChipResult,
    summary="tree-search generation with tool-feedback rounds (Fig. 4)",
    accepts_budget=True,
    runner=lambda req: [
        run_autochip(p, req.model, seed=req.seed, jobs=req.jobs,
                     budget=req.budget)
        for p in req.problems],
))

_register(FlowSpec(
    name="structured",
    entry=run_structured_sweep,
    result_type=StructuredSweep,
    summary="feedback-driven protocol with human escalation ([10])",
    runner=lambda req: run_structured_sweep(
        req.model, req.problems, seeds=(req.seed,), jobs=req.jobs),
))

_register(FlowSpec(
    name="vrank",
    entry=vrank_sweep,
    result_type=VRankSweep,
    summary="self-consistency ranking of Verilog candidates",
    runner=lambda req: vrank_sweep(
        req.problems, req.model, seeds=(req.seed,), jobs=req.jobs),
))

_register(FlowSpec(
    name="chipchat",
    entry=run_chipchat_tapeout,
    result_type=TapeoutReport,
    summary="conversational co-design with a human in the loop",
    runner=lambda req: run_chipchat_tapeout(
        req.problems, req.model, seed=req.seed, jobs=req.jobs),
))

_register(FlowSpec(
    name="crosscheck",
    entry=guided_debug_sweep,
    result_type=GuidedDebugSweep,
    summary="high-level-model guided RTL debugging (Section VI)",
    runner=lambda req: guided_debug_sweep(
        req.problems, req.model, seeds=(req.seed,), jobs=req.jobs),
))

_register(FlowSpec(
    name="hierarchical",
    entry=hierarchical_sweep,
    result_type=HierarchicalSweep,
    summary="hierarchical decomposition vs direct generation",
    runner=lambda req: hierarchical_sweep(
        req.problems, req.model, seeds=(req.seed,), jobs=req.jobs),
))

_register(FlowSpec(
    name="assertgen",
    entry=assertion_sweep,
    result_type=AssertionSweep,
    summary="AssertLLM/AutoSVA assertion generation and refinement",
    runner=lambda req: assertion_sweep(
        req.problems, req.model, seeds=(req.seed,), jobs=req.jobs),
))

_register(FlowSpec(
    name="autobench",
    entry=autobench_sweep,
    result_type=AutoBenchSweep,
    summary="generated-testbench quality with self-correction",
    runner=lambda req: autobench_sweep(
        req.problems, req.model, seeds=(req.seed,), jobs=req.jobs),
))

_register(FlowSpec(
    name="agent",
    entry=run_task_suite,
    result_type=TaskSuiteResult,
    summary="planner agent task suite: plan/act/observe over the tool "
            "registry, scored pass@k",
    accepts_budget=True,
    runner=lambda req: run_task_suite(
        req.model, task_ids=req.tasks, seed=req.seed, budget=req.budget,
        jobs=req.jobs),
))

_register(FlowSpec(
    name="security",
    entry=detection_sweep,
    result_type=dict,
    summary="hardware-trojan insertion and detector hierarchy",
    uses_model=False,
    runner=lambda req: detection_sweep(
        req.problems, seeds=(req.seed,), jobs=req.jobs),
))
