"""Genetic-programming baseline for SLT program generation (Section V).

The comparison system: tournament-selected, crossover + mutation over the
full (unconstrained) genome space.  Because GP is free of the LLM's
realistic-code prior, it can reach parameter regions "with no real-world
equivalent" — extreme unrolling, cache-hostile strides — which is how it
finds higher-power snippets given a longer budget (paper: 5.682 W in 39 h vs
5.042 W in 24 h for the LLM).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..llm.model import _stable_seed
from ..riscv.fpga import FpgaPowerMeter
from .loop import LoopEvent, SltRunResult
from .snippets import (HANDWRITTEN_SEEDS, SnippetGenome, crossover,
                       mutate_genome, random_genome)
from .stop import StopCondition


@dataclass
class GpConfig:
    population_size: int = 16
    tournament_size: int = 3
    crossover_p: float = 0.6
    mutation_strength: float = 1.2
    elitism: int = 2
    realistic_only: bool = False   # ablation: constrain GP to the LLM envelope


@dataclass
class _Individual:
    genome: SnippetGenome
    power_w: float = 0.0
    evaluated: bool = False


class GeneticProgramming:
    """Steady-state GP over snippet genomes, scored on the power rig."""

    def __init__(self, meter: FpgaPowerMeter, config: GpConfig | None = None,
                 seed: int = 0):
        self.meter = meter
        self.config = config or GpConfig()
        self.seed = seed

    def _evaluate(self, genome: SnippetGenome) -> float:
        measurement = self.meter.measure_c(genome.render())
        return measurement.watts if measurement.ok else 0.0

    def _tournament(self, population: list[_Individual],
                    rng: random.Random) -> _Individual:
        contenders = rng.sample(population,
                                min(self.config.tournament_size,
                                    len(population)))
        return max(contenders, key=lambda ind: ind.power_w)

    def run(self, stop: StopCondition) -> SltRunResult:
        cfg = self.config
        rng = random.Random(_stable_seed(self.seed, "gp", cfg.population_size))
        realistic = cfg.realistic_only

        population: list[_Individual] = []
        for genome in HANDWRITTEN_SEEDS:
            population.append(_Individual(genome))
        while len(population) < cfg.population_size:
            population.append(_Individual(random_genome(rng,
                                                        realistic=realistic)))

        events: list[LoopEvent] = []
        best_power = 0.0
        best_source = ""
        snippet_id = 0
        since_improvement = 0
        reason = "no iterations"

        def score(ind: _Individual) -> bool:
            nonlocal snippet_id, best_power, best_source, since_improvement
            snippet_id += 1
            ind.power_w = self._evaluate(ind.genome)
            ind.evaluated = True
            if ind.power_w > best_power:
                best_power = ind.power_w
                best_source = ind.genome.render()
                since_improvement = 0
            else:
                since_improvement += 1
            events.append(LoopEvent(snippet_id, self.meter.elapsed_hours,
                                    ind.power_w, best_power, 0.0, True,
                                    ind.power_w > 0))
            return True

        # Initial evaluation.
        for ind in population:
            stop_reason = stop.should_stop(self.meter.elapsed_hours,
                                           snippet_id, since_improvement)
            if stop_reason is not None:
                reason = stop_reason
                break
            score(ind)

        while True:
            stop_reason = stop.should_stop(self.meter.elapsed_hours,
                                           snippet_id, since_improvement)
            if stop_reason is not None:
                reason = stop_reason
                break
            # Breed one child (steady-state) and replace the worst member.
            parent_a = self._tournament(population, rng)
            if rng.random() < cfg.crossover_p:
                parent_b = self._tournament(population, rng)
                child_genome = crossover(parent_a.genome, parent_b.genome, rng)
            else:
                child_genome = parent_a.genome
            child_genome = mutate_genome(child_genome, rng,
                                         realistic=realistic,
                                         strength=cfg.mutation_strength)
            child = _Individual(child_genome.clamped(realistic=realistic))
            score(child)
            ranked = sorted(population, key=lambda ind: -ind.power_w)
            elite = ranked[:cfg.elitism]
            worst = ranked[-1]
            if child.power_w > worst.power_w or worst not in elite:
                population.remove(worst)
                population.append(child)
            reason = "exhausted"

        return SltRunResult(
            best_power_w=best_power,
            best_source=best_source,
            snippets_generated=snippet_id,
            elapsed_hours=self.meter.elapsed_hours,
            stop_reason=reason,
            events=events,
        )


def run_gp_slt(hours: float = 39.0, seed: int = 0,
               realistic_only: bool = False,
               meter: FpgaPowerMeter | None = None) -> SltRunResult:
    """One-call GP SLT run with the paper's default setup."""
    meter = meter or FpgaPowerMeter(seed=seed + 1000)
    gp = GeneticProgramming(meter, GpConfig(realistic_only=realistic_only),
                            seed=seed)
    return gp.run(StopCondition(max_hours=hours))
