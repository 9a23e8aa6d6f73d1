"""AutoBench / CorrectBench: LLM testbench generation with self-correction.

AutoBench (Section II) has the LLM build a hybrid test platform for an HDL
design; CorrectBench adds a functional *self-correction loop*.  The
simulated testbench is vector-based: the model proposes stimulus vectors and
expected outputs.  Two failure modes are modelled, matching the paper's
observations about generated-testbench quality:

* **coverage deficiency** — weak models propose few, poorly-spread vectors
  (the structured-flow study found "significant issues ... with the
  generated testbenches lacking acceptable test coverage");
* **wrong expectations** — the model's mental simulation of the spec is
  faulty, so a correct design can be rejected.

Self-correction re-derives every expectation independently and majority-
votes, which quadratically suppresses wrong expectations — the CorrectBench
lift.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..bench.harness import make_task
from ..bench.problems import Problem
from ..engine import Budget, LoopKernel, RoundState, RunRecord
from ..exec import SweepScheduler
from ..hdl import parse_module
from ..hdl.elaborate import eval_const
from ..hdl.testbench import exercise_module
from ..llm.client import LLMClient, resolve_client
from ..llm.model import SimulatedLLM, _stable_seed


@dataclass
class GeneratedTestbench:
    problem_id: str
    model: str
    clk: str | None
    reset: str | None
    vectors: list[dict[str, int]] = field(default_factory=list)
    expectations: list[dict[str, str]] = field(default_factory=list)
    corrupted_count: int = 0          # ledger (introspection only)
    self_corrected: bool = False

    @property
    def n_checks(self) -> int:
        return len(self.vectors)


@dataclass
class TbVerdict:
    simulated: bool
    checks: int = 0
    failures: int = 0

    @property
    def passed(self) -> bool:
        return self.simulated and self.failures == 0 and self.checks > 0


def _interface(problem: Problem) -> tuple[dict[str, int], str | None, str | None]:
    module = parse_module(problem.reference, problem.module_name)
    widths: dict[str, int] = {}
    clk = None
    reset = None
    for port in module.ports:
        if port.direction != "input":
            continue
        width = 1 if port.rng is None else eval_const(port.rng.msb, {}) + 1
        if port.name in ("clk", "clock"):
            clk = port.name
            continue
        if port.name in ("rst", "reset", "rst_n"):
            reset = port.name
            continue
        widths[port.name] = width
    return widths, clk, reset


def generate_testbench(problem: Problem,
                       model: str | SimulatedLLM | LLMClient,
                       n_vectors: int | None = None, *, seed: int = 0,
                       self_correct: bool = False) -> GeneratedTestbench:
    """Simulate LLM testbench generation for one problem."""
    llm = resolve_client(model, seed=seed)
    profile = llm.profile
    rng = random.Random(_stable_seed(seed, profile.name, problem.problem_id,
                                     "autobench"))
    widths, clk, reset = _interface(problem)

    # Coverage: capable instruct models propose more and better-spread vectors.
    if n_vectors is None:
        base = 4 + round(10 * profile.instruction_following)
        n_vectors = max(3, base)
    narrow = profile.semantic_reliability < 0.7   # weak models use tiny values

    vectors: list[dict[str, int]] = []
    for _ in range(n_vectors):
        vec = {}
        for name, width in widths.items():
            if narrow and rng.random() < 0.6:
                vec[name] = rng.randrange(min(4, 1 << width))
            else:
                vec[name] = rng.getrandbits(width)
        vectors.append(vec)

    # Expected outputs: derived from the model's mental simulation of the
    # spec — approximated by the golden reference corrupted with probability
    # tied to semantic reliability.
    golden = exercise_module(problem.reference, problem.module_name, vectors,
                             clk=clk, reset=reset)
    assert golden is not None, "golden reference must simulate"
    p_err = (1.0 - profile.semantic_reliability) * 0.25

    def derive(attempt_seed: int) -> tuple[list[dict[str, str]], int]:
        derive_rng = random.Random(_stable_seed(seed, profile.name,
                                                problem.problem_id, "derive",
                                                attempt_seed))
        rows: list[dict[str, str]] = []
        corrupted = 0
        for row in golden:
            out: dict[str, str] = {}
            for port, value in row.items():
                if derive_rng.random() < p_err:
                    corrupted += 1
                    out[port] = value + "_wrong"
                else:
                    out[port] = value
            rows.append(out)
        return rows, corrupted

    expectations, corrupted = derive(0)
    self_corrected = False
    if self_correct:
        # Functional self-correction: re-derive twice more and majority-vote
        # each expectation.
        alt1, _ = derive(1)
        alt2, _ = derive(2)
        voted: list[dict[str, str]] = []
        corrupted = 0
        for row0, row1, row2 in zip(expectations, alt1, alt2):
            out: dict[str, str] = {}
            for port in row0:
                candidates = [row0[port], row1[port], row2[port]]
                winner = max(set(candidates), key=candidates.count)
                out[port] = winner
                if winner.endswith("_wrong"):
                    corrupted += 1
            voted.append(out)
        expectations = voted
        self_corrected = True

    return GeneratedTestbench(problem.problem_id, profile.name, clk, reset,
                              vectors, expectations, corrupted,
                              self_corrected)


def check_design(tb: GeneratedTestbench, source: str,
                 module_name: str) -> TbVerdict:
    """Run a candidate design against a generated testbench."""
    rows = exercise_module(source, module_name, tb.vectors, clk=tb.clk,
                           reset=tb.reset)
    if rows is None:
        return TbVerdict(simulated=False)
    verdict = TbVerdict(simulated=True)
    for actual, expected in zip(rows, tb.expectations):
        verdict.checks += 1
        for port, want in expected.items():
            if actual.get(port) != want:
                verdict.failures += 1
                break
    return verdict


@dataclass
class TbQualityReport:
    problem_id: str
    model: str
    self_corrected: bool
    false_reject: bool          # golden design fails the generated TB
    mutant_kill_rate: float     # fraction of faulty designs the TB rejects
    coverage_vs_golden: float   # checks relative to the problem's quality TB
    n_checks: int = field(default=0, kw_only=True)

    def summary(self) -> str:
        return (f"{self.problem_id} [{self.model}"
                f"{'+sc' if self.self_corrected else ''}]: "
                f"checks={self.n_checks} false_reject={self.false_reject} "
                f"kill={self.mutant_kill_rate:.0%}")


def testbench_quality(problem: Problem,
                      model: str | SimulatedLLM | LLMClient,
                      n_mutants: int = 6, *, seed: int = 0,
                      self_correct: bool = False,
                      budget: Budget | None = None) -> TbQualityReport:
    """Measure a generated testbench on the two axes that matter.

    The mutant-kill loop (sample faulty designs until ``n_mutants`` real
    mutants are scored) runs on the :class:`repro.engine.LoopKernel`.
    """
    llm = resolve_client(model, seed=seed)
    tb = generate_testbench(problem, llm, seed=seed, self_correct=self_correct)
    from ..critic import resolve_critic
    critic = resolve_critic("autobench")
    if critic is not None:
        # Screen expectation rows whose expected literals are malformed —
        # shape only, never the reference — before scoring the bench.
        tb, _dropped = critic.screen_testbench(tb)
    golden_verdict = check_design(tb, problem.reference, problem.module_name)
    false_reject = not golden_verdict.passed

    # Mutants: faulty candidate designs from a deliberately weak generator.
    task = make_task(problem)
    mutant_llm = SimulatedLLM("dave-gpt2", seed=seed + 99)
    record = RunRecord(flow="autobench.mutants",
                       problem_id=problem.problem_id, model=llm.profile.name)
    st = {"killed": 0, "produced": 0}

    def stop(state: RoundState) -> str | None:
        return "quota" if st["produced"] >= n_mutants else None

    def step(state: RoundState, sp) -> str | None:
        generation = mutant_llm.generate(task, temperature=1.1,
                                         sample_index=state.round_no - 1)
        record.generations += 1
        if not generation.faults:
            return None   # accidentally correct: not a mutant
        st["produced"] += 1
        verdict = check_design(tb, generation.text, problem.module_name)
        record.tool_evaluations += 1
        if not verdict.passed:
            st["killed"] += 1
        return None

    LoopKernel(step=step, stop=stop, record=record, budget=budget,
               max_rounds=n_mutants * 3, span_name="autobench.mutant").run()
    kill_rate = st["killed"] / st["produced"] if st["produced"] else 0.0

    from ..bench.harness import evaluate_candidate
    golden_tb = evaluate_candidate(problem, problem.reference)
    coverage = tb.n_checks / max(1, golden_tb.total_checks)
    result = TbQualityReport(problem.problem_id, llm.profile.name,
                             self_correct, false_reject, kill_rate,
                             min(2.0, coverage), n_checks=tb.n_checks)
    result.run_record = record
    return result


@dataclass
class AutoBenchSweep:
    results: list[TbQualityReport] = field(default_factory=list)

    @property
    def false_reject_rate(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.false_reject for r in self.results) / len(self.results)

    @property
    def mean_kill_rate(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.mutant_kill_rate
                   for r in self.results) / len(self.results)


def testbench_quality_task(payload: tuple) -> TbQualityReport:
    """``(problem, model, self_correct, seed) -> TbQualityReport`` — one
    generated-testbench quality cell."""
    problem, model, self_correct, seed = payload
    return testbench_quality(problem, model, seed=seed,
                             self_correct=self_correct)


def autobench_sweep(problems: list[Problem],
                    model: str | SimulatedLLM | LLMClient = "gpt-4", *,
                    self_correct: bool = False,
                    seeds: tuple[int, ...] = (0, 1, 2),
                    jobs: int | str | None = None) -> AutoBenchSweep:
    """Generated-testbench quality grid; fans out for plain profile names."""
    cells = [(problem, model, self_correct, seed)
             for seed in seeds for problem in problems]
    if isinstance(model, str):
        return AutoBenchSweep(
            SweepScheduler(jobs).map(testbench_quality_task, cells))
    sweep = AutoBenchSweep()
    for problem, _, self_corr, seed in cells:
        sweep.results.append(testbench_quality(problem, model, seed=seed,
                                               self_correct=self_corr))
    return sweep
