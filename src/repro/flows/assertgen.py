"""AssertLLM / AutoSVA-style assertion generation (Section II).

AssertLLM extracts structure from the specification, maps signals, and emits
assertions; AutoSVA iteratively refines them against formal-verification
feedback.  Our assertions are executable checks over the mini-Verilog
simulator:

* **point assertions** — for a concrete stimulus, an output takes a concrete
  value (the workhorse of spec-mined properties);
* **reset assertions** — after reset, a sequential design's outputs hold
  their documented reset values.

Quality is measured the way the assertion literature does: *validity*
(assertion holds on the golden design) and *mutant kill rate* (how many
faulty designs at least one assertion rejects).  The AutoSVA-style
refinement loop removes assertions the (simulated) formal tool disproves,
driving validity to 1 at some cost in assertion count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..bench.harness import make_task
from ..bench.problems import Problem
from ..engine import Budget, LoopKernel, RoundState, RunRecord
from ..exec import SweepScheduler
from ..hdl.testbench import exercise_module
from ..llm.client import LLMClient, resolve_client
from ..llm.model import SimulatedLLM, _stable_seed
from .autobench import _interface


@dataclass(frozen=True)
class Assertion:
    kind: str                    # 'point' | 'reset'
    stimulus: tuple[tuple[str, int], ...]
    port: str
    expected: str
    description: str


def _holds(assertion: Assertion, source: str, module_name: str,
           clk: str | None, reset: str | None) -> bool | None:
    """Check one assertion; None when the design does not simulate."""
    if assertion.kind == "reset":
        vectors = [dict(assertion.stimulus)]
        rows = exercise_module(source, module_name, vectors, clk=clk,
                               reset=reset)
    else:
        rows = exercise_module(source, module_name,
                               [dict(assertion.stimulus)], clk=clk,
                               reset=reset)
    if rows is None:
        return None
    return rows[-1].get(assertion.port) == assertion.expected


def generate_assertions(problem: Problem,
                        model: str | SimulatedLLM | LLMClient,
                        n_assertions: int = 8, *,
                        seed: int = 0) -> list[Assertion]:
    """Mine assertions from the spec (simulated AssertLLM front-end)."""
    llm = resolve_client(model, seed=seed)
    profile = llm.profile
    rng = random.Random(_stable_seed(seed, profile.name, problem.problem_id,
                                     "assert"))
    widths, clk, reset = _interface(problem)
    assertions: list[Assertion] = []

    # Reset assertion for sequential designs.
    if reset is not None:
        zero_vec = {name: 0 for name in widths}
        rows = exercise_module(problem.reference, problem.module_name,
                               [zero_vec], clk=clk, reset=reset)
        if rows:
            for port, value in rows[-1].items():
                expected = value
                if rng.random() < (1 - profile.spec_comprehension) * 0.4:
                    expected = value + "_wrong"
                assertions.append(Assertion(
                    "reset", tuple(sorted(zero_vec.items())), port, expected,
                    f"after reset, {port} holds its documented value"))

    # Point assertions from the model's reading of the spec.
    p_err = (1.0 - profile.semantic_reliability) * 0.4
    while len(assertions) < n_assertions:
        vec = {name: rng.getrandbits(width) for name, width in widths.items()}
        rows = exercise_module(problem.reference, problem.module_name, [vec],
                               clk=clk, reset=reset)
        if not rows:
            break
        port = rng.choice(sorted(rows[-1]))
        expected = rows[-1][port]
        if rng.random() < p_err:
            expected = expected + "_wrong"
        assertions.append(Assertion(
            "point", tuple(sorted(vec.items())), port, expected,
            f"{port} matches the spec for stimulus {vec}"))
    return assertions


@dataclass
class AssertionReport:
    problem_id: str
    model: str
    mutant_kill_rate: float
    generated: int = field(default=0, kw_only=True)
    valid: int = field(default=0, kw_only=True)   # hold on the golden design
    refined: int = field(default=0, kw_only=True)  # surviving refinement
    refinement_rounds: int = field(default=0, kw_only=True)

    @property
    def validity(self) -> float:
        return self.valid / self.generated if self.generated else 0.0

    def summary(self) -> str:
        return (f"{self.problem_id} [{self.model}]: {self.generated} "
                f"generated, validity={self.validity:.0%}, "
                f"{self.refined} after refinement, "
                f"kill={self.mutant_kill_rate:.0%}")


def refine_assertions(assertions: list[Assertion], problem: Problem,
                      max_rounds: int = 3,
                      budget: Budget | None = None
                      ) -> tuple[list[Assertion], int]:
    """AutoSVA-style loop: drop assertions the formal tool disproves.

    Our 'formal tool' is exhaustive-enough simulation against the golden
    design — sound for the point/reset assertion classes used here.  The
    loop runs on the :class:`repro.engine.LoopKernel`.
    """
    widths, clk, reset = _interface(problem)
    record = RunRecord(flow="assertgen.refine",
                       problem_id=problem.problem_id)
    st = {"current": list(assertions)}

    def step(state: RoundState, sp) -> str | None:
        record.tool_evaluations += len(st["current"])
        failing = [a for a in st["current"]
                   if _holds(a, problem.reference, problem.module_name,
                             clk, reset) is not True]
        if not failing:
            return "converged"
        st["current"] = [a for a in st["current"] if a not in failing]
        return None

    LoopKernel(step=step, record=record, budget=budget,
               max_rounds=max_rounds, span_name="assertgen.round").run()
    return st["current"], record.rounds_used


def assertion_quality(problem: Problem,
                      model: str | SimulatedLLM | LLMClient,
                      n_assertions: int = 8, n_mutants: int = 5, *,
                      seed: int = 0) -> AssertionReport:
    llm = resolve_client(model, seed=seed)
    widths, clk, reset = _interface(problem)
    assertions = generate_assertions(problem, llm, n_assertions, seed=seed)
    from ..critic import resolve_critic
    critic = resolve_critic("assertgen")
    if critic is not None:
        # Drop structurally bad assertions (vacuous stimulus, malformed
        # expected literal) before spending simulator time on them; keep
        # the original set when the critic would reject everything.
        kept, _rejected = critic.screen_assertions(assertions)
        if kept:
            assertions = kept
    valid = sum(1 for a in assertions
                if _holds(a, problem.reference, problem.module_name,
                          clk, reset) is True)
    refined, rounds = refine_assertions(assertions, problem)

    # Mutant killing with the refined set.
    task = make_task(problem)
    mutant_llm = SimulatedLLM("dave-gpt2", seed=seed + 31)
    killed = 0
    produced = 0
    for i in range(n_mutants * 3):
        if produced >= n_mutants:
            break
        generation = mutant_llm.generate(task, temperature=1.1,
                                         sample_index=i)
        if not generation.faults:
            continue
        produced += 1
        for assertion in refined:
            outcome = _holds(assertion, generation.text, problem.module_name,
                             clk, reset)
            if outcome is not True:     # fails or does not simulate
                killed += 1
                break
    kill_rate = killed / produced if produced else 0.0
    return AssertionReport(problem.problem_id, llm.profile.name, kill_rate,
                           generated=len(assertions), valid=valid,
                           refined=len(refined), refinement_rounds=rounds)


@dataclass
class AssertionSweep:
    results: list[AssertionReport] = field(default_factory=list)

    @property
    def mean_kill_rate(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.mutant_kill_rate
                   for r in self.results) / len(self.results)


def assertion_quality_task(payload: tuple) -> AssertionReport:
    """``(problem, model, seed) -> AssertionReport`` — one assertion-quality
    cell."""
    problem, model, seed = payload
    return assertion_quality(problem, model, seed=seed)


def assertion_sweep(problems: list[Problem],
                    model: str | SimulatedLLM | LLMClient = "gpt-4", *,
                    seeds: tuple[int, ...] = (0, 1, 2),
                    jobs: int | str | None = None) -> AssertionSweep:
    """Assertion-quality grid; fans out for plain profile names."""
    cells = [(problem, model, seed)
             for seed in seeds for problem in problems]
    if isinstance(model, str):
        return AssertionSweep(
            SweepScheduler(jobs).map(assertion_quality_task, cells))
    sweep = AssertionSweep()
    for problem, _, seed in cells:
        sweep.results.append(assertion_quality(problem, model, seed=seed))
    return sweep
