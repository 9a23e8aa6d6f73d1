"""The SLT optimization loop of Fig. 5.

Flow per iteration (exactly the paper's boxes):

1. pick *n* random examples from the candidate pool,
2. build the prompt (SCoT, power-annotated examples) and query the LLM,
3. evaluate the snippet on the (simulated) FPGA power rig — score is zero
   when the snippet does not compile or raises an unwanted exception,
4. admit to / reject from the candidate pool (Levenshtein diversity rule),
5. check stop conditions,
6. adapt the LLM temperature from the score and the pool distance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..engine import Budget, LoopKernel, RoundState, RunRecord
from ..llm.model import SimulatedLLM, _stable_seed
from ..obs import get_tracer
from ..riscv.fpga import FpgaPowerMeter
from .pool import Candidate, CandidatePool
from .scot import SltSnippetGenerator
from .snippets import HANDWRITTEN_SEEDS
from .stop import StopCondition
from .temperature import TemperatureController


@dataclass
class LoopEvent:
    snippet_id: int
    elapsed_hours: float
    power_w: float
    best_w: float
    temperature: float
    admitted: bool
    compiled: bool


@dataclass
class SltRunResult:
    best_power_w: float
    best_source: str
    snippets_generated: int
    elapsed_hours: float
    stop_reason: str
    events: list[LoopEvent] = field(default_factory=list)
    pool_final_diversity: float = 0.0
    compile_failures: int = 0

    def summary(self) -> str:
        return (f"{self.snippets_generated} snippets in "
                f"{self.elapsed_hours:.1f}h; best {self.best_power_w:.3f}W; "
                f"stop: {self.stop_reason}")


@dataclass
class SltConfig:
    examples_per_prompt: int = 3
    pool_capacity: int = 12
    min_pool_distance: int = 8
    use_scot: bool = True
    adapt_temperature: bool = True
    fixed_temperature: float = 0.7
    enforce_diversity: bool = True


class SltOptimizer:
    """LLM-based system-level-test program optimization (Fig. 5)."""

    def __init__(self, llm: SimulatedLLM, meter: FpgaPowerMeter,
                 config: SltConfig | None = None, seed: int = 0):
        self.llm = llm
        self.meter = meter
        self.config = config or SltConfig()
        self.seed = seed
        self.generator = SltSnippetGenerator(llm, use_scot=self.config.use_scot,
                                             seed=seed)
        self.pool = CandidatePool(
            capacity=self.config.pool_capacity,
            min_distance=self.config.min_pool_distance
            if self.config.enforce_diversity else 0)
        self.temperature = TemperatureController(
            initial=self.config.fixed_temperature)

    def _seed_pool(self) -> None:
        """Handwritten example programs seed the candidate pool."""
        for i, genome in enumerate(HANDWRITTEN_SEEDS):
            source = genome.render()
            measurement = self.meter.measure_c(source)
            power = measurement.watts if measurement.ok else 0.0
            self.pool.consider(Candidate(source, genome, power, -(i + 1)))

    def run(self, stop: StopCondition,
            budget: Budget | None = None) -> SltRunResult:
        rng = random.Random(_stable_seed(self.seed, self.llm.profile.name,
                                         "slt-loop"))
        self._seed_pool()
        best = self.pool.best
        st = {"best_power": best.power_w if best else 0.0,
              "best_source": best.source if best else "",
              "since_improvement": 0, "compile_failures": 0}
        events: list[LoopEvent] = []
        record = RunRecord(flow="slt", model=self.llm.profile.name)
        tracer = get_tracer()

        # The loop runs on the LoopKernel with ``span_name=None``: each
        # iteration opens its own ``slt.iteration`` span below, so the
        # snippet_id attribute lands at span creation exactly as before.
        def should_stop(state: RoundState) -> str | None:
            return stop.should_stop(self.meter.elapsed_hours, state.round_no,
                                    st["since_improvement"])

        def step(state: RoundState, _sp) -> str | None:
            snippet_id = state.round_no
            # The span's elapsed_hours attribute is the same meter clock the
            # StopCondition elapsed-time clause reads, so a trace shows
            # exactly how close each iteration ran to the time budget.
            with tracer.span("slt.iteration", snippet_id=snippet_id) as sp:
                examples = self.pool.sample_examples(
                    self.config.examples_per_prompt, rng)
                generation = self.generator.generate(
                    examples, self.temperature.temperature, snippet_id)
                record.generations += 1
                measurement = self.meter.measure_c(generation.source)
                record.tool_evaluations += 1
                power = measurement.watts if measurement.ok else 0.0
                if not measurement.ok:
                    st["compile_failures"] += 1

                admitted = False
                distance = self.pool.distance_to_pool(generation.source)
                if measurement.ok:
                    admitted = self.pool.consider(Candidate(
                        generation.source, generation.genome, power,
                        snippet_id))
                if power > st["best_power"]:
                    st["best_power"] = power
                    st["best_source"] = generation.source
                    st["since_improvement"] = 0
                else:
                    st["since_improvement"] += 1

                if self.config.adapt_temperature:
                    self.temperature.update(power, st["best_power"], distance,
                                            self.pool.min_distance)
                events.append(LoopEvent(
                    snippet_id, self.meter.elapsed_hours, power,
                    st["best_power"], self.temperature.temperature, admitted,
                    measurement.ok))
                sp.set(power_w=round(power, 4),
                       best_w=round(st["best_power"], 4),
                       admitted=admitted, compiled=measurement.ok,
                       elapsed_hours=round(self.meter.elapsed_hours, 4),
                       temperature=round(self.temperature.temperature, 3))
            return None

        LoopKernel(step=step, stop=should_stop, record=record, budget=budget,
                   span_name=None).run()

        result = SltRunResult(
            best_power_w=st["best_power"],
            best_source=st["best_source"],
            snippets_generated=record.rounds_used,
            elapsed_hours=self.meter.elapsed_hours,
            stop_reason=record.stop_reason or record.budget_exhausted
            or "no iterations",
            events=events,
            pool_final_diversity=self.pool.mean_pairwise_distance(),
            compile_failures=st["compile_failures"],
        )
        result.run_record = record
        return result


def run_llm_slt(model: str = "codellama-34b-instruct-ft", hours: float = 24.0,
                seed: int = 0, use_scot: bool = True,
                adapt_temperature: bool = True,
                enforce_diversity: bool = True,
                meter: FpgaPowerMeter | None = None,
                budget: Budget | None = None) -> SltRunResult:
    """One-call LLM SLT run with the paper's default setup."""
    meter = meter or FpgaPowerMeter(seed=seed)
    config = SltConfig(use_scot=use_scot, adapt_temperature=adapt_temperature,
                       enforce_diversity=enforce_diversity)
    optimizer = SltOptimizer(SimulatedLLM(model, seed=seed), meter, config,
                             seed=seed)
    with get_tracer().span("slt.run", model=model, hours=hours,
                           seed=seed) as sp:
        result = optimizer.run(StopCondition(max_hours=hours), budget=budget)
        sp.set(stop_reason=result.stop_reason,
               snippets=result.snippets_generated,
               best_power_w=round(result.best_power_w, 4))
    return result
