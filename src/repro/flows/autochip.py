"""AutoChip: fully-automated Verilog generation with tree search (Fig. 4).

Given a problem with a *quality testbench* (AutoChip's required input), each
round samples ``k`` candidate responses, evaluates every candidate with the
EDA tools, ranks them by fraction of passing test cases, and feeds the best
candidate's tool output back for the next round — up to tree depth ``d``.

The loop itself lives in :class:`repro.engine.RefinementEngine`; this module
only supplies the hooks (how to sample, score, rank and build feedback) and
the public result dataclass, a thin view over the engine's
:class:`~repro.engine.RunRecord`.

The experiment the paper reports (E6 here): across four commercial-model
profiles, only the most capable one benefits more from feedback iterations
(depth) than from candidate sampling (breadth), because exploiting EDA error
messages requires high feedback comprehension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bench.harness import evaluate_candidate_task, make_task
from ..bench.problems import Problem
from ..engine import (Budget, RefinementEngine, RoundLog, RoundState,
                      RunRecord, Selection, rank_by_score)
from ..exec import ParallelEvaluator, SweepScheduler
from ..hdl.testbench import TestbenchResult
from ..llm.client import LLMClient, resolve_client
from ..llm.model import Generation, SimulatedLLM
from ..llm.prompts import Prompt, PromptStrategy

__all__ = ["AutoChip", "AutoChipConfig", "AutoChipResult", "BudgetComparison",
           "RoundLog", "compare_budgets", "run_autochip"]


@dataclass
class AutoChipConfig:
    k: int = 4                  # candidates per round
    depth: int = 3              # feedback iterations
    temperature: float = 0.8
    strategy: PromptStrategy = PromptStrategy.DIRECT


@dataclass
class AutoChipResult:
    problem_id: str
    model: str
    success: bool = False
    best_score: float = 0.0
    best_source: str = ""
    rounds_used: int = field(default=0, kw_only=True)
    generations: int = field(default=0, kw_only=True)
    tool_evaluations: int = field(default=0, kw_only=True)
    total_tokens: int = field(default=0, kw_only=True)
    rounds: list[RoundLog] = field(default_factory=list, kw_only=True)

    def summary(self) -> str:
        status = "PASS" if self.success else "FAIL"
        return (f"{self.problem_id} [{self.model}]: {status} "
                f"score={self.best_score:.2f} rounds={self.rounds_used} "
                f"generations={self.generations}")


class AutoChip:
    """The tree-search generation loop, hosted on the run engine.

    ``jobs`` fans each round's candidate evaluations (independent,
    CPU-bound testbench runs) over a worker pool; candidates are sampled
    in order, each keyed by its own sample index.
    """

    def __init__(self, llm: "SimulatedLLM | LLMClient",
                 config: AutoChipConfig | None = None,
                 jobs: int | str | None = None):
        self.llm = llm
        self.config = config or AutoChipConfig()
        self.jobs = jobs

    def run(self, problem: Problem,
            budget: Budget | None = None, *,
            initial_feedback: str = "") -> AutoChipResult:
        cfg = self.config
        task = make_task(problem)
        # ``initial_feedback`` threads prior tool findings (the agent's
        # lint warnings on re-open) into the very first generation prompt.
        prompt = Prompt(spec=problem.spec, strategy=cfg.strategy,
                        feedback=initial_feedback)
        tokens_before = self.llm.usage.total_tokens
        record = RunRecord(flow="autochip", problem_id=problem.problem_id,
                           model=self.llm.profile.name)
        # The run's winners, shared by the hooks and read back after the
        # engine finishes.
        best: dict = {"score": -1.0, "generation": None, "result": None}

        def candidates(state: RoundState) -> list[Generation]:
            base = (state.round_no - 1) * cfg.k
            samples = range(base, base + cfg.k)
            if state.round_no == 1 or best["generation"] is None:
                return [self.llm.generate(task, prompt, cfg.temperature,
                                          sample_index=i) for i in samples]
            return [self.llm.refine(task, best["generation"], state.feedback,
                                    cfg.temperature, sample_index=i)
                    for i in samples]

        def evaluate(state: RoundState,
                     cands: list[Generation]) -> list[TestbenchResult]:
            return ParallelEvaluator(self.jobs).map(
                evaluate_candidate_task,
                [(problem, g.text, 200_000) for g in cands])

        def select(state: RoundState, cands: list[Generation],
                   outcomes: list[TestbenchResult]) -> Selection:
            selection = rank_by_score(
                cands, outcomes,
                lambda tb: tb.score if tb.compiled else -0.5)
            if selection.best_score > best["score"]:
                best["score"] = selection.best_score
                best["generation"] = selection.best_candidate
                best["result"] = selection.best_outcome
            return selection

        def annotate(sp, state: RoundState, selection: Selection) -> None:
            sp.set(best_score=round(selection.best_score, 4),
                   best_faults=len(selection.best_candidate.faults),
                   round_fault_counts=[len(g.faults)
                                       for _, g, _ in selection.ranked],
                   feedback_used=bool(state.feedback))

        def stop_after(state: RoundState,
                       selection: Selection) -> str | None:
            return "passed" if best["result"].passed else None

        def next_feedback(state: RoundState, selection: Selection) -> str:
            return best["result"].feedback()

        from ..critic import resolve_critic
        critic = resolve_critic("autochip")
        engine = RefinementEngine(
            candidates=candidates, evaluate=evaluate, select=select,
            annotate=annotate, stop_after=stop_after, feedback=next_feedback,
            budget=budget, record=record, max_rounds=cfg.depth,
            span_name="autochip.round",
            span_attrs=lambda state: {"round_no": state.round_no,
                                      "k": cfg.k},
            critic=critic.engine_hook() if critic else None)
        engine.run()

        best_tb: TestbenchResult | None = best["result"]
        record.charge_tokens(self.llm.usage.total_tokens - tokens_before)
        result = AutoChipResult(
            problem.problem_id, self.llm.profile.name,
            bool(best_tb and best_tb.passed),
            max(0.0, best["score"]),
            best["generation"].text if best["generation"] else "",
            rounds_used=record.rounds_used,
            generations=record.generations,
            tool_evaluations=record.tool_evaluations,
            total_tokens=record.total_tokens,
            rounds=record.rounds)
        result.run_record = record
        return result


def run_autochip(problem: Problem,
                 model: str | SimulatedLLM | LLMClient = "gpt-4o", *,
                 k: int = 4, depth: int = 3, temperature: float = 0.8,
                 seed: int = 0, jobs: int | str | None = None,
                 budget: Budget | None = None) -> AutoChipResult:
    """One-call AutoChip run (unified flow signature)."""
    llm = resolve_client(model, seed=seed)
    return AutoChip(llm, AutoChipConfig(k=k, depth=depth,
                                        temperature=temperature),
                    jobs=jobs).run(problem, budget=budget)


@dataclass
class BudgetComparison:
    """Breadth-vs-depth comparison at a matched generation budget."""

    model: str
    budget: int
    breadth_success: float      # k=budget, d=1
    depth_success: float        # k=1, d=budget
    feedback_gain: float        # depth - breadth

    def summary(self) -> str:
        return (f"{self.model}: breadth={self.breadth_success:.2f} "
                f"depth={self.depth_success:.2f} "
                f"gain={self.feedback_gain:+.2f}")


def autochip_budget_task(payload: tuple) -> AutoChipResult:
    """``(problem, model, k, depth, temperature, seed) -> AutoChipResult`` —
    one cell of a ``compare_budgets`` grid (fresh client per cell: a
    ``SimulatedLLM`` generation depends only on its key, and result token
    counts are per-run deltas, so per-cell clients match the shared-client
    serial loop)."""
    problem, model, k, depth, temperature, seed = payload
    return run_autochip(problem, model, k=k, depth=depth,
                        temperature=temperature, seed=seed)


def compare_budgets(model: str | SimulatedLLM | LLMClient,
                    problems: list[Problem], budget: int = 6, *,
                    temperature: float = 0.8,
                    seeds: tuple[int, ...] = (0, 1, 2),
                    jobs: int | str | None = None) -> BudgetComparison:
    """Same total generations spent two ways: all breadth vs all depth.

    The ``seeds × problems`` grid goes through the
    :class:`~repro.exec.SweepScheduler`, so with ``jobs > 1`` whole cells
    run concurrently (pipelining generation against evaluation).  Cells
    are independent — a generation depends only on its
    ``(seed, model, task, sample)`` key and token counts are per-run
    deltas — so scheduled statistics are byte-identical to the serial
    loop.  A pre-built client instance cannot be shipped to workers and
    keeps the serial path.
    """
    def run_mode(k: int, depth: int) -> float:
        outcomes: list[AutoChipResult]
        if isinstance(model, str):
            cells = [(problem, model, k, depth, temperature, seed)
                     for seed in seeds for problem in problems]
            outcomes = SweepScheduler(jobs).map(autochip_budget_task, cells)
        else:
            outcomes = []
            for seed in seeds:
                llm = resolve_client(model, seed=seed)
                chip = AutoChip(llm, AutoChipConfig(k=k, depth=depth,
                                                    temperature=temperature),
                                jobs=jobs)
                outcomes.extend(chip.run(problem) for problem in problems)
        wins = sum(1 for outcome in outcomes if outcome.success)
        return wins / len(outcomes) if outcomes else 0.0

    breadth = run_mode(k=budget, depth=1)
    depth = run_mode(k=1, depth=budget)
    name = model if isinstance(model, str) else model.profile.name
    return BudgetComparison(name, budget, breadth, depth, depth - breadth)
