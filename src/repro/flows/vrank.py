"""VRank: self-consistency ranking of Verilog candidates (Section II).

"VRank exploits the probabilistic nature of LLMs to generate multiple
Verilog candidates, cluster them by simulation outputs, rank them by
consistency, and select the best design."

Candidates are clustered by their output signature on shared random input
vectors (no golden model needed), and the representative of the largest
cluster is selected — the same majority-vote logic as self-consistency
decoding.  The single generate → simulate → cluster pass runs as a
one-round :class:`repro.engine.RefinementEngine`, so sweeps share the
common :class:`~repro.engine.RunRecord` accounting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..bench.harness import evaluate_candidate_task, make_task
from ..bench.problems import Problem
from ..engine import (Budget, RefinementEngine, RoundState, RunRecord,
                      Selection)
from ..exec import ParallelEvaluator, SweepScheduler
from ..hdl.testbench import exercise_module
from ..llm.client import LLMClient, resolve_client
from ..llm.model import Generation, SimulatedLLM
from ..llm.prompts import Prompt


@dataclass
class Cluster:
    signature: str
    members: list[int] = field(default_factory=list)   # candidate indexes

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class VRankResult:
    problem_id: str
    model: str
    n_candidates: int = field(default=0, kw_only=True)
    n_simulated: int = field(default=0, kw_only=True)  # compiled & simulated
    clusters: list[Cluster] = field(default_factory=list)
    selected_index: int = -1
    selected_passed: bool = False
    first_passed: bool = False  # baseline: pick the first sample
    any_passed: bool = False    # oracle upper bound


def _make_vectors(problem: Problem, n: int, rng: random.Random,
                  widths: dict[str, int]) -> list[dict[str, int]]:
    vectors = []
    for _ in range(n):
        vectors.append({name: rng.getrandbits(width)
                        for name, width in widths.items()})
    return vectors


def exercise_module_task(payload: tuple) -> list | None:
    """``(source, top, vectors, clk, reset) -> signatures | None``."""
    source, top, vectors, clk, reset = payload
    return exercise_module(source, top, vectors, clk=clk, reset=reset)


def vrank(problem: Problem,
          model: str | SimulatedLLM | LLMClient = "gpt-4",
          n_candidates: int = 8, n_vectors: int = 12,
          temperature: float = 0.9, *, seed: int = 0,
          jobs: int | str | None = None,
          budget: Budget | None = None) -> VRankResult:
    """Run the full VRank flow on one problem.

    Candidate simulations are independent, so both the signature pass and
    the oracle pass@1 scoring fan out over ``jobs`` workers (serial when
    unset) with deterministic, submission-ordered results.
    """
    llm = resolve_client(model, seed=seed)
    task = make_task(problem)
    prompt = Prompt(spec=problem.spec)
    rng = random.Random(seed * 7919 + 13)

    # Input widths from the reference interface (public knowledge: the spec
    # fixes the port list).
    from ..hdl import parse_module
    ref = parse_module(problem.reference, problem.module_name)
    widths: dict[str, int] = {}
    clk_name = None
    for port in ref.ports:
        if port.direction != "input":
            continue
        from ..hdl.elaborate import eval_const
        width = 1 if port.rng is None else eval_const(port.rng.msb, {}) + 1
        if port.name in ("clk", "clock"):
            clk_name = port.name
            continue
        widths[port.name] = width
    vectors = _make_vectors(problem, n_vectors, rng, widths)

    result = VRankResult(problem.problem_id, llm.profile.name,
                         n_candidates=n_candidates)
    record = RunRecord(flow="vrank", problem_id=problem.problem_id,
                       model=llm.profile.name)
    tokens_before = llm.usage.total_tokens
    evaluator = ParallelEvaluator(jobs)

    def candidates(state: RoundState) -> list[Generation]:
        return llm.generate_many(task, prompt, temperature,
                                 sample_indices=range(n_candidates))

    def evaluate(state: RoundState, gens: list[Generation]) -> list:
        signatures = evaluator.map(
            exercise_module_task,
            [(g.text, problem.module_name, vectors, clk_name, "rst")
             for g in gens])
        testbenches = evaluator.map(
            evaluate_candidate_task,
            [(problem, g.text, 200_000) for g in gens])
        return list(zip(signatures, testbenches))

    def select(state: RoundState, gens: list[Generation],
               outcomes: list) -> Selection:
        signatures: list[str | None] = []
        for sig_rows, _tb in outcomes:
            if sig_rows is None:
                signatures.append(None)
                continue
            result.n_simulated += 1
            signatures.append(repr(sig_rows))

        clusters: dict[str, Cluster] = {}
        for index, signature in enumerate(signatures):
            if signature is None:
                continue
            clusters.setdefault(signature,
                                Cluster(signature)).members.append(index)
        result.clusters = sorted(clusters.values(), key=lambda c: -c.size)
        if result.clusters:
            result.selected_index = result.clusters[0].members[0]

        passes = [tb.passed for _sig, tb in outcomes]
        result.any_passed = any(passes)
        result.first_passed = passes[0] if passes else False
        if result.selected_index >= 0:
            result.selected_passed = passes[result.selected_index]
        chosen = max(result.selected_index, 0)
        return Selection(
            best_index=result.selected_index,
            best_candidate=gens[chosen] if gens else None,
            best_outcome=outcomes[chosen] if outcomes else None,
            best_score=float(result.selected_passed),
            scores=[float(p) for p in passes])

    from ..critic import resolve_critic
    critic = resolve_critic("vrank")
    RefinementEngine(candidates=candidates, evaluate=evaluate, select=select,
                     record=record, budget=budget, max_rounds=1,
                     span_name="vrank.round",
                     critic=critic.engine_hook() if critic else None).run()
    record.charge_tokens(llm.usage.total_tokens - tokens_before)
    result.run_record = record
    return result


@dataclass
class VRankSweep:
    results: list[VRankResult] = field(default_factory=list)

    @property
    def selected_rate(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.selected_passed for r in self.results) / len(self.results)

    @property
    def baseline_rate(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.first_passed for r in self.results) / len(self.results)

    @property
    def oracle_rate(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.any_passed for r in self.results) / len(self.results)


def vrank_cell_task(payload: tuple) -> VRankResult:
    """``(problem, model, n_candidates, temperature, seed) -> VRankResult``
    — one cell of a VRank sweep."""
    problem, model, n_candidates, temperature, seed = payload
    return vrank(problem, model, n_candidates, temperature=temperature,
                 seed=seed)


def vrank_sweep(problems: list[Problem],
                model: str | SimulatedLLM | LLMClient = "gpt-4",
                n_candidates: int = 8, temperature: float = 0.9, *,
                seeds: tuple[int, ...] = (0, 1, 2),
                jobs: int | str | None = None) -> VRankSweep:
    """Grid of :func:`vrank` cells; scheduled across ``jobs`` workers.

    Each cell already builds its own seeded client, so scheduling only
    changes when a cell runs, never what it computes.  A pre-built client
    instance cannot be shipped to workers and keeps the serial path.
    """
    sweep = VRankSweep()
    if isinstance(model, str):
        cells = [(problem, model, n_candidates, temperature, seed)
                 for seed in seeds for problem in problems]
        sweep.results.extend(SweepScheduler(jobs).map(vrank_cell_task, cells))
        return sweep
    for seed in seeds:
        for problem in problems:
            sweep.results.append(vrank(problem, model, n_candidates,
                                       temperature=temperature, seed=seed,
                                       jobs=jobs))
    return sweep
