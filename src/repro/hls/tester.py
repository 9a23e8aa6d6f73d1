"""HLSTester — behavioural-discrepancy testing for HLS (Fig. 3).

The five stages of the paper's flow map to:

1. testbench adaptation — reuse the repair templates to strip non-HLS
   constructs from the harness (``adapt_testbench``),
2. backward slicing — :mod:`repro.hls.slicing` identifies key variables,
3. instrumentation — the interpreter's trace restricted to key variables
   (:mod:`repro.hls.spectra`),
4. test-input generation — dynamic mutation plus an LLM reasoning chain
   that proposes boundary values targeted at the FPGA bit widths,
5. redundancy filtering — inputs whose spectrum was already observed skip
   the (expensive) FPGA-mode simulation.

A discrepancy is a CPU-mode vs FPGA-mode output difference on the same
input (custom bit widths and/or pipeline hazards).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..llm.model import SimulatedLLM, _stable_seed
from .cast import CProgram
from .compat import check_compatibility
from .cosim import copy_args
from .cparser import cparse
from .interp import CRuntimeError, Machine
from .slicing import SliceResult, backward_slice
from .spectra import CoverageMap, spectrum_of
from .transforms import TEMPLATES


@dataclass
class Discrepancy:
    inputs: list
    cpu_value: int | None
    fpga_value: int | None
    note: str = ""


@dataclass
class TesterReport:
    candidates_generated: int = 0
    sims_run: int = 0
    sims_skipped: int = 0
    discrepancies: list[Discrepancy] = field(default_factory=list)
    coverage: int = 0
    llm_guided_hits: int = 0

    @property
    def skip_rate(self) -> float:
        total = self.sims_run + self.sims_skipped
        return self.sims_skipped / total if total else 0.0

    def summary(self) -> str:
        return (f"{self.candidates_generated} candidates -> {self.sims_run} "
                f"simulated, {self.sims_skipped} skipped "
                f"({self.skip_rate:.0%}); {len(self.discrepancies)} "
                f"discrepancies; coverage={self.coverage}")


def adapt_testbench(source: str, top: str, llm: SimulatedLLM,
                    seed: int = 0) -> tuple[str, list[str]]:
    """Stage 1: make a C testbench HLS-compatible by applying templates.

    Returns the adapted source and a log of applied template ids.
    """
    from .cprinter import program_str
    program = cparse(source)
    rng = random.Random(_stable_seed(seed, llm.profile.name, top, "adapt"))
    applied: list[str] = []
    for _ in range(4):
        report = check_compatibility(program, top)
        if report.compatible:
            break
        progress = False
        for issue in report.issues:
            for template in TEMPLATES:
                if issue.code not in template.issue_codes:
                    continue
                if rng.random() > 0.5 + 0.45 * llm.profile.c_strength:
                    continue
                outcome = template.apply(program, issue)
                if outcome.applied:
                    program = outcome.program
                    applied.append(template.template_id)
                    progress = True
                break
        if not progress:
            break
    return program_str(program), applied


class HlsTester:
    """Runs the full discrepancy-testing campaign for one kernel."""

    def __init__(self, program: CProgram | str, function: str,
                 width_overrides: dict[str, int] | None = None,
                 pipeline_hazard: bool = True,
                 llm: SimulatedLLM | None = None,
                 seed: int = 0,
                 use_redundancy_filter: bool = True,
                 use_llm_guidance: bool = True,
                 use_slicing: bool = True):
        self.program = cparse(program) if isinstance(program, str) else program
        self.function = function
        self.width_overrides = width_overrides or {}
        self.pipeline_hazard = pipeline_hazard
        self.llm = llm or SimulatedLLM("gpt-4", seed=seed)
        self.seed = seed
        self.use_redundancy_filter = use_redundancy_filter
        self.use_llm_guidance = use_llm_guidance
        self.use_slicing = use_slicing
        self.func = self.program.function(function)
        self.slice: SliceResult = backward_slice(self.program, function) \
            if use_slicing else SliceResult(criterion=set(), key_variables=set())

    # -- input generation ---------------------------------------------------------

    def _random_input(self, rng: random.Random) -> list:
        args = []
        for param in self.func.params:
            if param.ctype.is_array or param.ctype.is_pointer:
                size = param.ctype.array_size
                size = size if size and size > 0 else 8
                args.append([rng.randrange(256) for _ in range(size)])
            else:
                args.append(rng.randrange(256))
        return args

    def _boundary_values(self) -> list[int]:
        """LLM reasoning chain: values that straddle the FPGA bit widths."""
        values = [0, 1]
        for width in set(self.width_overrides.values()) or {8, 16}:
            values.extend([(1 << width) - 1, 1 << width, (1 << width) + 1,
                           (1 << (width - 1)), (1 << (width - 1)) - 1])
        return values

    def _mutate(self, parent: list, rng: random.Random,
                llm_guided: bool) -> list:
        child = copy_args(parent)
        boundary = self._boundary_values()
        for i, arg in enumerate(child):
            if isinstance(arg, list):
                for j in range(len(arg)):
                    if rng.random() < 0.35:
                        arg[j] = self._mutate_scalar(arg[j], rng, boundary,
                                                     llm_guided)
            else:
                if rng.random() < 0.6:
                    child[i] = self._mutate_scalar(arg, rng, boundary,
                                                   llm_guided)
        return child

    def _mutate_scalar(self, value: int, rng: random.Random,
                       boundary: list[int], llm_guided: bool) -> int:
        if llm_guided and rng.random() < 0.6:
            return rng.choice(boundary)
        roll = rng.random()
        if roll < 0.33:
            return value ^ (1 << rng.randrange(16))
        if roll < 0.66:
            return max(0, value + rng.choice([-3, -1, 1, 3, 17]))
        return rng.randrange(1 << 16)

    # -- campaign -------------------------------------------------------------------

    def run(self, budget: int = 200) -> TesterReport:
        """Generate/evaluate up to ``budget`` test inputs."""
        rng = random.Random(_stable_seed(self.seed, self.function,
                                         self.llm.profile.name))
        report = TesterReport()
        coverage = CoverageMap()
        key_vars = self.slice.key_variables if self.use_slicing else None

        cpu_probe = Machine(self.program, mode="cpu", trace=True)
        cpu = Machine(self.program, mode="cpu")
        fpga = Machine(self.program, mode="fpga",
                       width_overrides=self.width_overrides,
                       pipeline_hazard=self.pipeline_hazard)

        corpus: list[list] = [self._random_input(rng) for _ in range(4)]
        for args in corpus:
            self._evaluate(args, cpu_probe, cpu, fpga, coverage, key_vars,
                           report, llm_guided=False)
            report.candidates_generated += 1

        while report.candidates_generated < budget:
            llm_guided = self.use_llm_guidance and rng.random() \
                < 0.3 + 0.5 * self.llm.profile.c_strength
            parent = rng.choice(corpus)
            child = self._mutate(parent, rng, llm_guided)
            report.candidates_generated += 1
            added = self._evaluate(child, cpu_probe, cpu, fpga, coverage,
                                   key_vars, report, llm_guided)
            if added:
                corpus.append(child)
                if len(corpus) > 64:
                    corpus.pop(0)
        report.coverage = coverage.size
        return report

    def _evaluate(self, args: list, cpu_probe: Machine, cpu: Machine,
                  fpga: Machine, coverage: CoverageMap,
                  key_vars: set[str] | None, report: TesterReport,
                  llm_guided: bool) -> bool:
        # Cheap instrumented CPU run for the spectrum.
        try:
            probe = cpu_probe.call(self.function, *copy_args(args))
        except CRuntimeError:
            return False
        spectrum = spectrum_of(probe, key_vars)
        if self.use_redundancy_filter and coverage.is_redundant(spectrum):
            report.sims_skipped += 1
            return False
        added = coverage.observe(spectrum)

        # Expensive leg: FPGA-mode simulation + comparison.
        report.sims_run += 1
        cpu_args = copy_args(args)
        try:
            cpu_out = cpu.call(self.function, *cpu_args)
        except CRuntimeError:
            return added
        fpga_args = copy_args(args)
        try:
            fpga_out = fpga.call(self.function, *fpga_args)
        except CRuntimeError as exc:
            report.discrepancies.append(Discrepancy(
                args, cpu_out.value, None, f"fpga runtime error: {exc.kind}"))
            if llm_guided:
                report.llm_guided_hits += 1
            return added
        cpu_value = self._observable(cpu_out.value, cpu_args, cpu)
        fpga_value = self._observable(fpga_out.value, fpga_args, fpga)
        if cpu_value != fpga_value:
            report.discrepancies.append(Discrepancy(args, cpu_out.value,
                                                    fpga_out.value))
            if llm_guided:
                report.llm_guided_hits += 1
        return added

    def _observable(self, value, args, machine) -> tuple:
        # Return value plus array contents (arrays are in-out observable).
        arrays = tuple(tuple(a) for a in args if isinstance(a, list))
        return (value, arrays)


def test_kernel(source: str, function: str,
                width_overrides: dict[str, int] | None = None,
                budget: int = 200, seed: int = 0,
                model: str = "gpt-4") -> TesterReport:
    """One-call convenience wrapper around :class:`HlsTester`."""
    tester = HlsTester(source, function, width_overrides,
                       llm=SimulatedLLM(model, seed=seed), seed=seed)
    return tester.run(budget)
