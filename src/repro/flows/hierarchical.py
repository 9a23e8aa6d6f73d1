"""Hierarchical prompting (Section IV, [3] — "Rome was Not Built in a
Single Step" / CL-Verilog).

Complex designs are decomposed into submodules that are generated
independently, then composed.  In the simulation this is the HIERARCHICAL
prompting strategy — it reduces the *effective complexity* each generation
faces (see :func:`repro.llm.prompts.prompt_effects`) at the cost of extra
model calls — plus a composition step that can itself fail for models with
weak instruction following.

The hierarchical-vs-direct comparison runs as a one-round
:class:`repro.engine.RefinementEngine` whose two candidates are the two
arms, sampled independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bench.harness import evaluate_candidate, make_task
from ..bench.problems import Problem
from ..engine import (Budget, RefinementEngine, RoundState, RunRecord,
                      Selection, rank_by_score)
from ..exec import SweepScheduler
from ..llm.client import LLMClient, resolve_client
from ..llm.model import SimulatedLLM
from ..llm.prompts import Prompt, PromptStrategy


@dataclass
class HierarchicalResult:
    problem_id: str
    model: str
    success: bool
    direct_success: bool         # same model, single-shot baseline
    submodule_calls: int = field(default=0, kw_only=True)
    total_tokens: int = field(default=0, kw_only=True)

    @property
    def lift(self) -> int:
        return int(self.success) - int(self.direct_success)


def run_hierarchical(problem: Problem,
                     model: str | SimulatedLLM | LLMClient = "cl-verilog-34b",
                     temperature: float = 0.7, *, seed: int = 0,
                     budget: Budget | None = None) -> HierarchicalResult:
    """Hierarchical vs direct generation on one problem."""
    llm = resolve_client(model, seed=seed)
    task = make_task(problem)
    tokens_before = llm.usage.total_tokens
    record = RunRecord(flow="hierarchical", problem_id=problem.problem_id,
                       model=llm.profile.name)

    def candidates(state: RoundState) -> list:
        return [llm.generate(task, Prompt(spec=problem.spec,
                                          strategy=strategy),
                             temperature, sample_index=i)
                for i, strategy in enumerate((PromptStrategy.HIERARCHICAL,
                                              PromptStrategy.DIRECT))]

    def evaluate(state: RoundState, cands: list) -> list:
        return [evaluate_candidate(problem, g.text) for g in cands]

    # The verdicts are positional (arm 0 = hierarchical, arm 1 = direct),
    # so capture them before the selector's score ranking reorders.
    verdicts: dict = {"hier": False, "direct": False}

    def select(state: RoundState, cands: list, outcomes: list) -> Selection:
        verdicts["hier"] = outcomes[0].passed
        verdicts["direct"] = outcomes[1].passed
        return rank_by_score(cands, outcomes, lambda tb: float(tb.passed))

    from ..critic import resolve_critic
    critic = resolve_critic("hierarchical")
    # Annotate-only (critic_filter=False): the selector compares the
    # hierarchical and direct arms positionally, so candidates must
    # never be dropped — verdicts are still recorded on the run record.
    RefinementEngine(candidates=candidates, evaluate=evaluate,
                     select=select, record=record, budget=budget,
                     max_rounds=1, span_name="hierarchical.round",
                     critic=critic.engine_hook() if critic else None,
                     critic_filter=False).run()

    record.charge_tokens(llm.usage.total_tokens - tokens_before)
    result = HierarchicalResult(
        problem.problem_id, llm.profile.name,
        verdicts["hier"], verdicts["direct"],
        submodule_calls=max(1, problem.complexity - 1),
        total_tokens=record.total_tokens)
    result.run_record = record
    return result


@dataclass
class HierarchicalSweep:
    results: list[HierarchicalResult] = field(default_factory=list)

    def rate(self, hierarchical: bool) -> float:
        if not self.results:
            return 0.0
        key = (lambda r: r.success) if hierarchical \
            else (lambda r: r.direct_success)
        return sum(key(r) for r in self.results) / len(self.results)


def hierarchical_task(payload: tuple) -> HierarchicalResult:
    """``(problem, model, seed) -> HierarchicalResult`` — one cell of a
    hierarchical-vs-direct sweep."""
    problem, model, seed = payload
    return run_hierarchical(problem, model, seed=seed)


def hierarchical_sweep(problems: list[Problem],
                       model: str | SimulatedLLM | LLMClient
                       = "cl-verilog-34b", *,
                       seeds: tuple[int, ...] = (0, 1, 2, 3),
                       jobs: int | str | None = None) -> HierarchicalSweep:
    """Hierarchical-vs-direct grid; scheduled for plain profile names."""
    cells = [(problem, model, seed)
             for seed in seeds for problem in problems]
    if isinstance(model, str):
        return HierarchicalSweep(
            SweepScheduler(jobs).map(hierarchical_task, cells))
    sweep = HierarchicalSweep()
    for problem, _, seed in cells:
        sweep.results.append(run_hierarchical(problem, model, seed=seed))
    return sweep
