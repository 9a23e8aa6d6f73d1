"""FPGA measurement-rig simulator.

The SLT study measures power on a physical FPGA: each evaluation costs real
wall-clock time (program load, run, power capture) and returns a noisy
reading.  Both properties matter to the experiment's shape — the 24 h / 39 h
budgets in Section V are *measurement-rig hours*, not CPU hours — so the
meter simulates them: a virtual clock advances per measurement, and readings
carry seeded Gaussian noise.

Everything before the noise draw is a pure function of its inputs, so the
simulator does it once per process: the mini-C build is memoized on
``(c_source, entry)`` and the core run on ``(CoreConfig, asm text)``.  A
memo hit still charges the rig's seconds, counts the measurement, makes
the same noise draw and goes through :meth:`FpgaPowerMeter.measure_program`,
so no reading, clock or RNG state differs from a run without the memos
(DESIGN.md §18).  The loops re-measure the pool's handwritten seeds in every
run, which makes most short-loop measurements repeats.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field

from ..store import LruCache
from .assembler import Program, assemble
from .compiler import compile_program
from .core import Core, CoreConfig, CoreStats, ExecutionFault
from .power import estimate_power

# Entries per memo.  Values are text and CoreStats, never Programs: holding
# assembled Programs (~30 KB each) at 256 entries raised the slt_power
# per-cell peak RSS by 28-39%; this size and shape kept it within 1%.
RIG_MEMO_CAPACITY = 64
# (c_source, entry) -> (asm text, "") or ("", "compile: ..." failure text)
_BUILDS = LruCache(RIG_MEMO_CAPACITY)
# (CoreConfig, asm text) -> CoreStats, or the ExecutionFault message
_RUNS = LruCache(RIG_MEMO_CAPACITY)


def _copy(stats: CoreStats) -> CoreStats:
    """A private copy, so no caller can change what the memo holds."""
    return dataclasses.replace(stats, unit_ops=dict(stats.unit_ops),
                               unit_activity=dict(stats.unit_activity))


def _run(config: CoreConfig, program: Program) -> CoreStats | str:
    """The core run's stats, or its fault message; memoized when the
    program records the text it was assembled from."""
    key = (config, program.source) if program.source else None
    outcome = _RUNS.get(key) if key else None
    if outcome is None:
        try:
            outcome = Core(config).run(program)
        except ExecutionFault as exc:
            outcome = str(exc)
        if key:
            _RUNS.put(key, outcome)
    return _copy(outcome) if isinstance(outcome, CoreStats) else outcome


@dataclass
class PowerMeasurement:
    ok: bool
    watts: float = 0.0
    stats: CoreStats | None = None
    error: str = ""
    measurement_seconds: float = 0.0


@dataclass
class FpgaPowerMeter:
    """Simulated measurement setup: compile → load → run → read power."""

    config: CoreConfig = field(default_factory=CoreConfig)
    noise_sigma_w: float = 0.015
    # Program load + run + power capture. 24 h of rig time at this rate is
    # ~2021 measurements — the snippet count the paper reports for its 24 h run.
    seconds_per_measurement: float = 42.75
    seconds_per_failure: float = 9.0         # compile errors fail fast
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self.elapsed_seconds = 0.0
        self.measurements = 0

    def measure_c(self, c_source: str, entry: str = "main") -> PowerMeasurement:
        """Compile a C snippet and measure its power on the core."""
        key = (c_source, entry)
        built = _BUILDS.get(key)
        if built is None:
            try:
                built = (compile_program(c_source, entry=entry), "")
            except Exception as exc:   # parse or compile failure
                built = ("", f"compile: {exc}")
            _BUILDS.put(key, built)
        asm, error = built
        if error:
            self.elapsed_seconds += self.seconds_per_failure
            return PowerMeasurement(ok=False, error=error,
                                    measurement_seconds=self.seconds_per_failure)
        return self.measure_asm(asm)

    def measure_asm(self, asm_source: str) -> PowerMeasurement:
        try:
            program = assemble(asm_source)
        except Exception as exc:
            self.elapsed_seconds += self.seconds_per_failure
            return PowerMeasurement(ok=False, error=f"assemble: {exc}",
                                    measurement_seconds=self.seconds_per_failure)
        return self.measure_program(program)

    def measure_program(self, program: Program) -> PowerMeasurement:
        cost = self.seconds_per_measurement
        outcome = _run(self.config, program)
        if isinstance(outcome, str):
            # Unwanted exception or timeout: score zero, per the paper.
            self.elapsed_seconds += cost
            self.measurements += 1
            return PowerMeasurement(ok=False, error=outcome,
                                    measurement_seconds=cost)
        clean = estimate_power(outcome).total_w
        noisy = clean + self._rng.gauss(0.0, self.noise_sigma_w)
        self.elapsed_seconds += cost
        self.measurements += 1
        return PowerMeasurement(ok=True, watts=max(0.0, noisy), stats=outcome,
                                measurement_seconds=cost)

    @property
    def elapsed_hours(self) -> float:
        return self.elapsed_seconds / 3600.0
