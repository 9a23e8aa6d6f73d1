"""High-level guided RTL debugging (Section VI, "High-Level Guided RTL
Debugging").

The paper's proposal: LLMs are much more reliable at producing *untimed
behavioural models* (Python/C) than HDL, so generate a high-level reference
from the same natural-language spec and use cross-level comparison against
RTL simulation as the debugging oracle — "reliable high-level execution as a
reference to effectively compensate for error-prone HDL generation".

Implementation: the (simulated) LLM emits a mini-C behavioural model for a
benchmark problem with a reliability bonus over its HDL generation (the
paper's premise).  The cross-checker drives both the C model (interpreter)
and the RTL candidate (event-driven simulator) with shared stimulus and
produces *localized* feedback — which input vector diverged, expected vs
actual — which is far more informative than a bare FAIL line, so refinement
converges faster.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..bench.harness import evaluate_candidate, make_task
from ..bench.problems import Problem
from ..engine import Budget, LoopKernel, RoundState, RunRecord
from ..exec import SweepScheduler
from ..hdl.testbench import exercise_module
from ..hls.cparser import cparse
from ..hls.interp import CRuntimeError, Machine
from ..llm.client import LLMClient, resolve_client
from ..llm.model import Generation, SimulatedLLM, _stable_seed
from .autobench import _interface

# Behavioural C models for the combinational benchmark problems.  In the
# real flow the LLM writes these; here they are the "reference semantics"
# the simulated LLM perturbs (far more rarely than it perturbs HDL).
_C_MODELS: dict[str, str] = {
    "c1_mux2": "int model(int a, int b, int sel) { return sel ? b : a; }",
    "c1_half_adder":
        "int model(int a, int b) { return ((a & b) << 1) | (a ^ b); }",
    "c1_and4": "int model(int x) { return (x & 15) == 15 ? 1 : 0; }",
    "c1_parity": """
int model(int d) {
    int p = 0;
    for (int i = 0; i < 8; i++) { p = p ^ ((d >> i) & 1); }
    return p;
}""",
    "c2_adder8": "int model(int a, int b, int cin) "
                 "{ return (a + b + cin) & 511; }",
    "c2_absdiff": "int model(int a, int b) { return a > b ? a - b : b - a; }",
    "c2_gray": "int model(int b) { return (b ^ (b >> 1)) & 15; }",
    "c2_comparator": """
int model(int a, int b) {
    int lt = a < b ? 1 : 0;
    int eq = a == b ? 1 : 0;
    int gt = a > b ? 1 : 0;
    return lt | (eq << 1) | (gt << 2);
}""",
    "c2_decoder": "int model(int sel, int en) "
                  "{ return en ? (1 << sel) & 255 : 0; }",
    "c3_alu": """
int model(int a, int b, int op) {
    if (op == 0) { return (a + b) & 255; }
    if (op == 1) { return (a - b) & 255; }
    if (op == 2) { return a & b; }
    return a ^ b;
}""",
    "c3_priority": """
int model(int req) {
    int grant = 0;
    for (int i = 0; i < 8; i++) {
        if ((req >> i) & 1) { grant = i; }
    }
    int valid = req != 0 ? 1 : 0;
    return grant | (valid << 3);
}""",
}

# How the RTL outputs pack into the C model's return value, per problem.
_PACKING: dict[str, list[tuple[str, int]]] = {
    "c1_mux2": [("y", 0)],
    "c1_half_adder": [("sum", 0), ("carry", 1)],
    "c1_and4": [("y", 0)],
    "c1_parity": [("p", 0)],
    "c2_adder8": [("sum", 0), ("cout", 8)],
    "c2_absdiff": [("y", 0)],
    "c2_gray": [("g", 0)],
    "c2_comparator": [("lt", 0), ("eq", 1), ("gt", 2)],
    "c2_decoder": [("y", 0)],
    "c3_alu": [("y", 0)],
    "c3_priority": [("grant", 0), ("valid", 3)],
}


_OPERATOR_CHARS = "+-*/%<>=!&|^~?:"


def _flip_operator(source: str) -> str:
    """A wrong mental model: flip the first standalone ``+``, else ``^``,
    else ``<`` (one that is not part of ``++``, ``<<``, ``<=``...)."""
    for a, b in (("+", "-"), ("^", "&"), ("<", ">")):
        for i, ch in enumerate(source):
            if ch == a and source[i - 1:i] not in _OPERATOR_CHARS \
                    and source[i + 1:i + 2] not in _OPERATOR_CHARS:
                return source[:i] + b + source[i + 1:]
    return source


def supports_crosscheck(problem: Problem) -> bool:
    return problem.problem_id in _C_MODELS and not problem.sequential


@dataclass
class HighLevelModel:
    problem_id: str
    c_source: str
    faithful: bool           # introspection: did the LLM derive it correctly?


def generate_highlevel_model(problem: Problem,
                             llm: "SimulatedLLM | LLMClient",
                             seed: int = 0) -> HighLevelModel:
    """The LLM writes an untimed C model from the spec.

    Per the paper's premise, high-level generation is much more reliable
    than HDL generation: the error channel is the model's spec
    comprehension, scaled down by 4x.
    """
    if not supports_crosscheck(problem):
        raise ValueError(f"no high-level model template for "
                         f"{problem.problem_id}")
    rng = random.Random(_stable_seed(seed, llm.profile.name,
                                     problem.problem_id, "hlmodel"))
    source = _C_MODELS[problem.problem_id]
    p_err = (1.0 - llm.profile.spec_comprehension) * 0.25
    faithful = True
    if rng.random() < p_err:
        faithful = False
        source = _flip_operator(source)
    self_tokens = len(source.split())
    llm.usage.record(64, self_tokens)
    return HighLevelModel(problem.problem_id, source, faithful)


@dataclass
class CrossCheckReport:
    vectors: int = 0
    divergences: list[dict] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return self.vectors > 0 and not self.divergences

    def feedback(self, max_items: int = 3) -> str:
        """Localized, high-information feedback for the refinement loop.

        The leading "cross-check" marker is what the refinement channel keys
        on: divergence reports carry concrete inputs and expected values, so
        they are categorically easier to act on than aggregate FAIL counts.
        """
        if self.consistent:
            return "cross-check PASS: RTL matches the high-level model"
        lines = [f"cross-check: {len(self.divergences)} of {self.vectors} "
                 f"vectors diverge from the high-level model"]
        for div in self.divergences[:max_items]:
            lines.append(f"  inputs={div['inputs']} expected={div['expected']}"
                         f" rtl={div['actual']}")
        return "\n".join(lines)


def crosscheck(problem: Problem, rtl_source: str, model: HighLevelModel,
               vectors: int = 24, seed: int = 0) -> CrossCheckReport | None:
    """Drive the C model and the RTL with shared stimulus; None if the RTL
    does not simulate."""
    widths, clk, reset = _interface(problem)
    rng = random.Random(_stable_seed(seed, problem.problem_id, "xchk"))
    program = cparse(model.c_source)
    machine = Machine(program)
    packing = _PACKING[problem.problem_id]

    stimulus = []
    for _ in range(vectors):
        stimulus.append({name: rng.getrandbits(w)
                         for name, w in widths.items()})
    rows = exercise_module(rtl_source, problem.module_name, stimulus,
                           clk=clk, reset=reset)
    if rows is None:
        return None

    # The C model takes inputs in declared-port order.
    param_names = [p.name
                   for p in program.function("model").params]
    report = CrossCheckReport(vectors=len(stimulus))
    for vec, row in zip(stimulus, rows):
        try:
            expected = machine.call("model",
                                    *[vec.get(n, 0) for n in param_names])
        except CRuntimeError:
            continue
        packed_actual = 0
        unknown = False
        for port, shift in packing:
            text = row.get(port, "")
            if "x" in text.split("'")[-1]:
                unknown = True
                break
            value = int(text.split("'h")[-1], 16) if "'h" in text else 0
            packed_actual |= value << shift
        if unknown or packed_actual != (expected.value or 0):
            report.divergences.append({
                "inputs": vec,
                "expected": expected.value,
                "actual": "X" if unknown else packed_actual,
            })
    return report


@dataclass
class GuidedDebugResult:
    problem_id: str
    model: str
    success: bool
    model_faithful: bool
    used_crosscheck: bool
    iterations: int = field(default=0, kw_only=True)

    def summary(self) -> str:
        status = "PASS" if self.success else "FAIL"
        return (f"{self.problem_id} [{self.model}]: {status} in "
                f"{self.iterations} iteration(s) "
                f"({'cross-check' if self.used_crosscheck else 'plain'} "
                f"feedback)")


def guided_debug(problem: Problem, llm: "SimulatedLLM | LLMClient",
                 use_crosscheck: bool = True, max_iterations: int = 4,
                 temperature: float = 0.9, seed: int = 0,
                 budget: Budget | None = None) -> GuidedDebugResult:
    """Generate RTL, then debug it against the high-level model (or plain
    testbench feedback when ``use_crosscheck`` is off).  The repair loop
    runs on the :class:`repro.engine.LoopKernel`."""
    task = make_task(problem)
    tokens_before = llm.usage.total_tokens
    record = RunRecord(flow="crosscheck", problem_id=problem.problem_id,
                       model=llm.profile.name)
    st: dict = {"generation": llm.generate(task, temperature=temperature,
                                           sample_index=seed),
                "iterations": 0}
    record.generations += 1
    hl_model = generate_highlevel_model(problem, llm, seed=seed) \
        if use_crosscheck else None
    from ..critic import resolve_critic
    critic = resolve_critic("crosscheck")

    def step(state: RoundState, sp) -> str | None:
        generation: Generation = st["generation"]
        verdict = evaluate_candidate(problem, generation.text)
        record.tool_evaluations += 1
        if verdict.passed:
            return "passed"
        st["iterations"] += 1
        iteration = state.round_no - 1
        if use_crosscheck and hl_model is not None:
            xreport = crosscheck(problem, generation.text, hl_model,
                                 seed=seed + iteration)
            feedback = xreport.feedback() if xreport is not None \
                else verdict.feedback()
            # Localized divergences are informative feedback: append the
            # canonical markers the refinement channel keys on.
            if xreport is not None and xreport.divergences:
                feedback += "\nFAIL expected vs actual shown above"
        else:
            feedback = verdict.feedback()
        if critic is not None:
            cv = critic.review([generation.text], problem.module_name)[0]
            record.critic_reviews += 1
            if not cv.ok:
                record.critic_rejections += 1
                record.critic_verdicts.append(
                    {"round": state.round_no, "verdicts": [cv.summary()]})
                feedback += "\n" + cv.feedback()
        st["generation"] = llm.refine(task, generation, feedback,
                                      temperature, sample_index=iteration)
        record.generations += 1
        return None

    LoopKernel(step=step, record=record, budget=budget,
               max_rounds=max_iterations,
               span_name="crosscheck.iteration").run()

    final = evaluate_candidate(problem, st["generation"].text)
    record.tool_evaluations += 1
    record.charge_tokens(llm.usage.total_tokens - tokens_before)
    result = GuidedDebugResult(problem.problem_id, llm.profile.name,
                               final.passed,
                               hl_model.faithful if hl_model else True,
                               use_crosscheck,
                               iterations=st["iterations"])
    result.run_record = record
    return result


@dataclass
class GuidedDebugSweep:
    results: list[GuidedDebugResult] = field(default_factory=list)

    @property
    def success_rate(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.success for r in self.results) / len(self.results)


def guided_debug_task(payload: tuple) -> GuidedDebugResult:
    """``(problem, model, use_crosscheck, max_iterations, temperature,
    seed) -> GuidedDebugResult`` — one cell of a guided-debugging sweep."""
    problem, model, use_crosscheck, max_iterations, temperature, seed = payload
    return guided_debug(problem, resolve_client(model, seed=seed),
                        use_crosscheck=use_crosscheck,
                        max_iterations=max_iterations,
                        temperature=temperature, seed=seed)


def guided_debug_sweep(problems: list[Problem],
                       model: str | SimulatedLLM | LLMClient = "gpt-4",
                       use_crosscheck: bool = True,
                       max_iterations: int = 4, temperature: float = 0.9, *,
                       seeds: tuple[int, ...] = (0, 1, 2),
                       jobs: int | str | None = None) -> GuidedDebugSweep:
    """Run :func:`guided_debug` over a problem/seed grid.

    Each cell is an independent generate-and-repair loop, so with a plain
    profile name the sweep fans out over ``jobs`` workers (serial when
    unset); client instances are not picklable and run serially.
    Results keep the (seed-major) serial ordering either way.
    """
    payloads = [(problem, model, use_crosscheck, max_iterations,
                 temperature, seed)
                for seed in seeds for problem in problems
                if supports_crosscheck(problem) or not use_crosscheck]
    if isinstance(model, str):
        return GuidedDebugSweep(
            SweepScheduler(jobs).map(guided_debug_task, payloads))
    sweep = GuidedDebugSweep()
    for problem, _, use_x, max_iters, temp, seed in payloads:
        sweep.results.append(guided_debug(
            problem, resolve_client(model, seed=seed), use_crosscheck=use_x,
            max_iterations=max_iters, temperature=temp, seed=seed))
    return sweep
