"""Evaluation harness: pass@k over the problem suite.

Implements the VerilogEval-style protocol the paper's Section IV models are
compared under: sample k candidates per problem, score each against the
problem's quality testbench, and report pass@k / pass-fraction statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exec import ParallelEvaluator
from ..hdl import run_testbench
from ..hdl.testbench import TestbenchResult
from ..llm.client import LLMClient, resolve_client
from ..llm.model import Generation, GenerationTask, SimulatedLLM
from ..llm.prompts import Prompt, PromptStrategy
from ..obs import get_tracer
from .problems import Problem


def make_task(problem: Problem) -> GenerationTask:
    """Wrap a benchmark problem as a generation task."""
    return GenerationTask(
        task_id=problem.problem_id,
        spec=problem.spec,
        reference_source=problem.reference,
        complexity=problem.complexity,
        language="verilog",
        open_ended=problem.open_ended,
    )


def evaluate_candidate(problem: Problem, candidate_source: str,
                       max_time: int = 200_000) -> TestbenchResult:
    """Score one candidate design against the problem's testbench.

    The candidate and the testbench are compiled as separate units so the
    compile cache parses each problem's testbench once per suite rather
    than once per sample (see :mod:`repro.hdl.compile`).
    """
    return run_testbench(candidate_source, problem.tb_name,
                         max_time=max_time, tb_source=problem.testbench)


def evaluate_candidate_task(payload: tuple) -> TestbenchResult:
    """``(problem, candidate_source, max_time) -> TestbenchResult``."""
    problem, source, max_time = payload
    return evaluate_candidate(problem, source, max_time=max_time)


@dataclass
class SampleOutcome:
    generation: Generation
    result: TestbenchResult

    @property
    def passed(self) -> bool:
        return self.result.passed

    @property
    def score(self) -> float:
        return self.result.score


@dataclass
class ProblemEval:
    problem_id: str
    samples: list[SampleOutcome] = field(default_factory=list)

    @property
    def pass_at_1(self) -> float:
        if not self.samples:
            return 0.0
        return 1.0 if self.samples[0].passed else 0.0

    def pass_at_k(self, k: int) -> float:
        subset = self.samples[:k]
        return 1.0 if any(s.passed for s in subset) else 0.0

    @property
    def best_score(self) -> float:
        return max((s.score for s in self.samples), default=0.0)


@dataclass
class SuiteEval:
    model: str
    strategy: PromptStrategy
    problems: list[ProblemEval] = field(default_factory=list)

    def pass_at_k(self, k: int) -> float:
        if not self.problems:
            return 0.0
        return sum(p.pass_at_k(k) for p in self.problems) / len(self.problems)

    @property
    def mean_best_score(self) -> float:
        if not self.problems:
            return 0.0
        return sum(p.best_score for p in self.problems) / len(self.problems)

    def by_complexity(self, k: int = 1) -> dict[int, float]:
        from .problems import get_problem
        buckets: dict[int, list[float]] = {}
        for pe in self.problems:
            c = get_problem(pe.problem_id).complexity
            buckets.setdefault(c, []).append(pe.pass_at_k(k))
        return {c: sum(v) / len(v) for c, v in sorted(buckets.items())}


def evaluate_model(model: str | SimulatedLLM | LLMClient,
                   problems: list[Problem],
                   k: int = 1, temperature: float = 0.7,
                   strategy: PromptStrategy = PromptStrategy.DIRECT,
                   *, seed: int = 0,
                   jobs: int | str | None = None) -> SuiteEval:
    """Sample ``k`` candidates per problem and score them all.

    ``model`` may be a profile name, a raw :class:`SimulatedLLM`, or any
    :class:`~repro.llm.client.LLMClient` (strings resolve through
    :func:`repro.llm.client.resolve_client`).  ``jobs``
    fans the (independent, CPU-bound) testbench evaluations out over a
    worker pool; unset, evaluation is serial.  Generation stays in-process
    and scoring is a pure function of the candidate text, so the parallel
    path produces statistics identical to the serial path for a fixed seed.
    """
    llm = resolve_client(model, seed=seed)
    suite = SuiteEval(model=llm.profile.name, strategy=strategy)
    tracer = get_tracer()
    with tracer.span("bench.evaluate_model", model=llm.profile.name, k=k,
                     problems=len(problems)) as sp:
        generations: list[list[Generation]] = []
        with tracer.span("bench.generate"):
            for problem in problems:
                task = make_task(problem)
                prompt = Prompt(spec=problem.spec, strategy=strategy)
                generations.append([llm.generate(task, prompt, temperature,
                                                 sample_index=i)
                                    for i in range(k)])
        evaluator = ParallelEvaluator(jobs)
        payloads = [(problem, gen.text, 200_000)
                    for problem, gens in zip(problems, generations)
                    for gen in gens]
        results = evaluator.map(evaluate_candidate_task, payloads)
        cursor = 0
        for problem, gens in zip(problems, generations):
            pe = ProblemEval(problem.problem_id)
            for gen in gens:
                pe.samples.append(SampleOutcome(gen, results[cursor]))
                cursor += 1
            suite.problems.append(pe)
        sp.set(pass_at_1=round(suite.pass_at_k(1), 4))
    return suite
