"""Combinational equivalence checking.

Two modes:

* AIG vs AIG — exhaustive for small input counts, random-vector otherwise.
* AIG vs behavioural simulation — validates the synthesizer itself against
  the event-driven simulator (the same cross-check the paper's repair loop
  calls "C-RTL co-simulation", one level down).
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field

from ..hdl import ast as A
from ..hdl.testbench import StimulusRunner
from .aig import Aig
from .synthesize import SynthesizedModule


@dataclass
class CecResult:
    equivalent: bool
    counterexample: dict[str, int] | None = None
    mismatched_outputs: list[str] = field(default_factory=list)
    vectors_checked: int = 0
    exhaustive: bool = False


# Exhaustive CEC evaluates 2**_CHUNK_BITS input patterns per word pass.
_CHUNK_BITS = 12


@functools.lru_cache(maxsize=None)
def _column(position: int, width: int) -> int:
    """Bit ``position`` of every pattern index in ``range(2**width)``,
    packed so that bit ``k`` of the word belongs to pattern ``k``."""
    half = 1 << position
    block = ((1 << half) - 1) << half       # one period: zeros, then ones
    period_mask = (1 << (2 * half)) - 1
    return block * (((1 << (1 << width)) - 1) // period_mask)


def _pack(bits: list[int]) -> int:
    """Pack 0/1 values into a word, ``bits[i]`` at bit ``i``."""
    return int("0" + "".join(map(str, reversed(bits))), 2)


def _first_mismatch(a: Aig, b: Aig, shared: list[str],
                    columns: dict[str, int],
                    bits: int) -> tuple[int, list[str]] | None:
    """Lowest pattern on which ``a`` and ``b`` disagree, with the shared
    outputs that differ there; ``None`` when all ``bits`` patterns agree."""
    va = a.evaluate_words(columns, bits)
    vb = b.evaluate_words(columns, bits)
    diffs = [va[name] ^ vb[name] for name in shared]
    any_diff = 0
    for diff in diffs:
        any_diff |= diff
    if not any_diff:
        return None
    idx = (any_diff & -any_diff).bit_length() - 1
    return idx, [name for name, diff in zip(shared, diffs) if diff >> idx & 1]


def check_aigs(a: Aig, b: Aig, max_exhaustive_inputs: int = 12,
               random_vectors: int = 256, seed: int = 11) -> CecResult:
    """Compare two AIGs on their shared outputs.

    Vectors follow ``itertools.product`` order over the sorted union of
    inputs: input ``j`` of ``n`` is bit ``n-1-j`` of the vector index.
    """
    inputs = sorted(set(a.inputs) | set(b.inputs))
    outs_a = {name for name, _ in a.outputs}
    outs_b = {name for name, _ in b.outputs}
    shared = sorted(outs_a & outs_b)
    if not shared:
        return CecResult(equivalent=False, mismatched_outputs=["<no shared outputs>"])
    n = len(inputs)

    if n <= max_exhaustive_inputs:
        width = min(n, _CHUNK_BITS)
        bits = 1 << width
        ones = (1 << bits) - 1
        for base in range(0, 1 << n, bits):
            columns = {}
            for j, name in enumerate(inputs):
                position = n - 1 - j
                if position < width:
                    columns[name] = _column(position, width)
                else:
                    columns[name] = ones if base >> position & 1 else 0
            found = _first_mismatch(a, b, shared, columns, bits)
            if found is not None:
                idx, bad = found
                vector = base + idx
                counterexample = {name: vector >> (n - 1 - j) & 1
                                  for j, name in enumerate(inputs)}
                return CecResult(False, counterexample, bad, vector + 1,
                                 exhaustive=True)
        return CecResult(True, None, [], 1 << n, exhaustive=True)

    rng = random.Random(seed)
    draws = [rng.getrandbits(1) for _ in range(random_vectors * n)]
    columns = {name: _pack(draws[j::n]) for j, name in enumerate(inputs)}
    found = _first_mismatch(a, b, shared, columns, random_vectors)
    if found is not None:
        idx, bad = found
        counterexample = {name: draws[idx * n + j]
                          for j, name in enumerate(inputs)}
        return CecResult(False, counterexample, bad, idx + 1)
    return CecResult(True, None, [], random_vectors)


def check_against_simulation(synth: SynthesizedModule, source: str,
                             module: A.Module, vectors: int = 64,
                             seed: int = 13) -> CecResult:
    """Random-vector check: synthesized AIG vs behavioural simulation.

    The AIG side is one word pass over all ``vectors``; simulation then
    runs vector by vector up to the first mismatch.  Only valid for purely
    combinational modules (no flops).
    """
    if synth.is_sequential:
        raise ValueError("check_against_simulation only handles combinational modules")
    rng = random.Random(seed)
    runner = StimulusRunner(source, module.name)
    in_widths = {name: runner.width_of(name) for name in runner.inputs}
    stimuli = [{name: rng.getrandbits(w) for name, w in in_widths.items()}
               for _ in range(vectors)]

    columns = {f"{name}[{bit}]": _pack([s[name] >> bit & 1 for s in stimuli])
               for name, width in in_widths.items() for bit in range(width)}
    aig_out = synth.aig.evaluate_words(
        {n: columns.get(n, 0) for n in synth.aig.inputs}, vectors)
    out_words = {name: [aig_out.get(f"{name}[{bit}]", 0)
                        for bit in range(runner.width_of(name))]
                 for name in runner.outputs}

    for i, stimulus in enumerate(stimuli):
        sim_out = runner.apply(stimulus)
        bad: list[str] = []
        for out_name in runner.outputs:
            sim_val = sim_out[out_name]
            if sim_val.has_x:
                continue  # X from simulation can't be compared bitwise
            aig_val = 0
            for bit, word in enumerate(out_words[out_name]):
                aig_val |= (word >> i & 1) << bit
            if aig_val != sim_val.to_int():
                bad.append(out_name)
        if bad:
            return CecResult(False, stimulus, bad, i + 1)
    return CecResult(True, None, [], vectors)
