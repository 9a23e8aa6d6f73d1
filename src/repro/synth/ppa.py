"""Power / performance / area estimation for synthesized modules.

The PPA model is deliberately simple but *structural*: area tracks mapped
cell count, delay tracks mapped depth, and dynamic power tracks measured
switching activity from bit-parallel random simulation of the AIG — so the
pragma-optimization loops in ``repro.hls`` see a real design-dependent
objective, not a constant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .aig import Aig
from .synthesize import SynthesizedModule
from .techmap import map_to_cells, map_to_luts

# Calibration constants (arbitrary but fixed units).
_GATE_DELAY_NS = 0.08          # per AND2 level
_LUT_DELAY_NS = 0.35           # per LUT level
_AREA_PER_NAND2_UM2 = 0.8
_FLOP_AREA_UM2 = 4.5
_DYN_POWER_PER_TOGGLE_UW = 0.9
_FLOP_POWER_UW = 1.4
_LEAKAGE_PER_GATE_NW = 2.1


@dataclass
class PpaReport:
    area_um2: float
    delay_ns: float
    power_uw: float
    gate_count: int
    lut_count: int
    logic_depth: int
    lut_depth: int
    flop_count: int
    activity: float

    @property
    def max_frequency_mhz(self) -> float:
        if self.delay_ns <= 0:
            return float("inf")
        return 1000.0 / self.delay_ns

    def summary(self) -> str:
        return (f"area={self.area_um2:.1f}um2 delay={self.delay_ns:.2f}ns "
                f"power={self.power_uw:.1f}uW gates={self.gate_count} "
                f"luts={self.lut_count} flops={self.flop_count}")


def estimate_activity(aig: Aig, patterns: int = 128, seed: int = 7) -> float:
    """Average toggle probability per AND node under random stimulus."""
    if aig.num_ands == 0:
        return 0.0
    rng = random.Random(seed)
    bits = min(patterns, 63)
    assignment = {name: rng.getrandbits(bits) for name in aig.inputs}
    shifted = {name: ((v << 1) | (v >> (bits - 1))) & ((1 << bits) - 1)
               for name, v in assignment.items()}

    base = aig.node_words(assignment, bits)
    moved = aig.node_words(shifted, bits)
    toggles = 0
    count = 0
    for node in aig._ands:
        if node in base and node in moved:
            toggles += bin(base[node] ^ moved[node]).count("1")
            count += bits
    return toggles / count if count else 0.0


def estimate_ppa(synth: SynthesizedModule, lut_k: int = 4,
                 clock_ns: float | None = None, seed: int = 7) -> PpaReport:
    """Estimate power/performance/area for a synthesized module."""
    aig = synth.aig
    cells = map_to_cells(aig)
    luts = map_to_luts(aig, k=lut_k)
    depth = aig.depth()
    activity = estimate_activity(aig, seed=seed)
    flop_bits = sum(f.width for f in synth.flops)

    delay = max(depth * _GATE_DELAY_NS, 0.05)
    area = cells.area * _AREA_PER_NAND2_UM2 + flop_bits * _FLOP_AREA_UM2
    clock_factor = 1.0
    if clock_ns is not None and clock_ns > 0:
        clock_factor = max(0.25, min(4.0, 1.0 / clock_ns))
    dynamic = (aig.num_ands * activity * _DYN_POWER_PER_TOGGLE_UW
               + flop_bits * _FLOP_POWER_UW) * clock_factor
    leakage = cells.gate_count * _LEAKAGE_PER_GATE_NW / 1000.0
    return PpaReport(
        area_um2=area,
        delay_ns=delay,
        power_uw=dynamic + leakage,
        gate_count=cells.gate_count,
        lut_count=luts.lut_count,
        logic_depth=depth,
        lut_depth=luts.depth,
        flop_count=flop_bits,
        activity=activity,
    )
