"""Parametric C snippet space for system-level test generation.

Both search methods of Section V — the LLM loop and the genetic-programming
baseline — explore C programs that stress the DUT.  We represent a snippet
as a :class:`SnippetGenome`: a structured parameter vector that renders to
compilable mini-C.  The LLM samples genomes *anchored to realistic code*
(bounded unrolling, plausible constants, patterns that look like end-user
software), while GP may roam the full parameter space — including regions
with "no real-world equivalent", which is exactly how the paper explains GP
finding higher-power snippets than the LLM.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

# Parameter ranges: (realistic LLM range, full GP range).
RANGES = {
    "n_accs": ((1, 4), (1, 8)),
    "loop_iters": ((30, 250), (10, 600)),
    "unroll": ((1, 4), (1, 8)),
    "mul_ops": ((0, 2), (0, 6)),
    "xor_ops": ((0, 2), (0, 6)),
    "add_ops": ((1, 3), (0, 6)),
    "mem_size": ((0, 64), (0, 256)),
    "mem_stride": ((1, 4), (1, 64)),
    "div_every": ((0, 8), (0, 16)),
    "branch_every": ((0, 6), (0, 12)),
}


@dataclass(frozen=True)
class SnippetGenome:
    """Structured description of one stress snippet."""

    n_accs: int = 2
    loop_iters: int = 200
    unroll: int = 1
    mul_ops: int = 1
    xor_ops: int = 1
    add_ops: int = 1
    mem_size: int = 16
    mem_stride: int = 1
    div_every: int = 0
    branch_every: int = 0
    seed_consts: tuple[int, ...] = (0x5A5A, 0x3C7, 0x1234ABC, 0x0F0F)

    def clamped(self, realistic: bool) -> "SnippetGenome":
        idx = 0 if realistic else 1
        values = {}
        for name, ranges in RANGES.items():
            lo, hi = ranges[idx]
            values[name] = max(lo, min(hi, getattr(self, name)))
        return dataclasses.replace(self, **values)

    def is_realistic(self) -> bool:
        """Whether this genome stays within the realistic-code envelope."""
        for name, ranges in RANGES.items():
            lo, hi = ranges[0]
            if not lo <= getattr(self, name) <= hi:
                return False
        return True

    # -- rendering ---------------------------------------------------------------

    def render(self) -> str:
        """Render to compilable mini-C (entry point ``main``)."""
        lines: list[str] = ["int main() {"]
        consts = list(self.seed_consts) or [1]
        for i in range(self.n_accs):
            lines.append(f"    int acc{i} = {consts[i % len(consts)] & 0xFFFF};")
        lines.append(f"    int k0 = {consts[0] & 0x7FFFFFFF};")
        lines.append(f"    int k1 = {consts[1 % len(consts)] & 0x7FFFFFFF};")
        if self.mem_size > 0:
            lines.append(f"    int buf[{self.mem_size}];")
            lines.append(f"    for (int w = 0; w < {self.mem_size}; w++) "
                         f"{{ buf[w] = w * k0 + k1; }}")
        lines.append(f"    for (int it = 0; it < {self.loop_iters}; it++) {{")
        body = self._body_lines()
        for u in range(max(1, self.unroll)):
            for line in body:
                lines.append("        " + line.replace("@U", str(u)))
        lines.append("    }")
        total = " + ".join(f"acc{i}" for i in range(self.n_accs))
        lines.append(f"    return {total};")
        lines.append("}")
        return "\n".join(lines)

    def _body_lines(self) -> list[str]:
        ops: list[str] = []
        for i in range(self.n_accs):
            expr_parts: list[str] = []
            for m in range(self.mul_ops):
                other = (i + m + 1) % self.n_accs
                expr_parts.append(f"(acc{other} * k{m % 2})")
            for x in range(self.xor_ops):
                expr_parts.append(f"(acc{i} ^ (k{x % 2} + it + @U))")
            for a in range(self.add_ops):
                expr_parts.append(f"(it + {a * 2654435761 % 65536})")
            if not expr_parts:
                expr_parts.append("1")
            ops.append(f"acc{i} = acc{i} + {' + '.join(expr_parts)};")
            if self.mem_size > 0:
                idx = f"((it * {self.mem_stride} + {i} + @U) % {self.mem_size})"
                ops.append(f"acc{i} = acc{i} ^ buf[{idx}];")
                ops.append(f"buf[{idx}] = acc{i};")
            if self.div_every > 0 and i % max(1, self.div_every) == 0:
                ops.append(f"acc{i} = acc{i} % (k0 | 255);")
            if self.branch_every > 0 and i % max(1, self.branch_every) == 0:
                ops.append(f"if ((acc{i} & 1) == 0) {{ acc{i} = acc{i} + k1; }}")
        return ops


def random_genome(rng: random.Random, realistic: bool = True) -> SnippetGenome:
    idx = 0 if realistic else 1
    values = {name: rng.randint(*ranges[idx]) for name, ranges in RANGES.items()}
    consts = tuple(rng.randrange(1, 1 << 28) for _ in range(4))
    return SnippetGenome(seed_consts=consts, **values)


def mutate_genome(genome: SnippetGenome, rng: random.Random,
                  realistic: bool = True, strength: float = 1.0) -> SnippetGenome:
    """Perturb a genome; ``strength`` scales how far parameters move."""
    idx = 0 if realistic else 1
    updates: dict[str, object] = {}
    n_fields = max(1, round(strength * 3))
    names = list(RANGES)
    rng.shuffle(names)
    for name in names[:n_fields]:
        lo, hi = RANGES[name][idx]
        span = max(1, round((hi - lo) * 0.25 * strength))
        current = getattr(genome, name)
        updates[name] = max(lo, min(hi, current + rng.randint(-span, span)))
    if rng.random() < 0.3 * strength:
        consts = list(genome.seed_consts)
        slot = rng.randrange(len(consts))
        consts[slot] = rng.randrange(1, 1 << 28)
        updates["seed_consts"] = tuple(consts)
    return dataclasses.replace(genome, **updates)


def crossover(a: SnippetGenome, b: SnippetGenome,
              rng: random.Random) -> SnippetGenome:
    """Uniform crossover over genome fields (GP's recombination operator)."""
    updates: dict[str, object] = {}
    for name in RANGES:
        updates[name] = getattr(a if rng.random() < 0.5 else b, name)
    updates["seed_consts"] = a.seed_consts if rng.random() < 0.5 \
        else b.seed_consts
    return SnippetGenome(**updates)


# Hand-written seed snippets (the paper's initial candidate pool).
HANDWRITTEN_SEEDS: tuple[SnippetGenome, ...] = (
    SnippetGenome(n_accs=2, loop_iters=200, unroll=1, mul_ops=1, xor_ops=1,
                  add_ops=1, mem_size=16, mem_stride=1),
    SnippetGenome(n_accs=3, loop_iters=300, unroll=2, mul_ops=2, xor_ops=0,
                  add_ops=2, mem_size=0),
    SnippetGenome(n_accs=1, loop_iters=400, unroll=1, mul_ops=0, xor_ops=2,
                  add_ops=2, mem_size=64, mem_stride=4),
    SnippetGenome(n_accs=4, loop_iters=150, unroll=2, mul_ops=1, xor_ops=1,
                  add_ops=1, mem_size=32, mem_stride=2, branch_every=2),
    SnippetGenome(n_accs=2, loop_iters=250, unroll=1, mul_ops=2, xor_ops=1,
                  add_ops=1, mem_size=8, div_every=4),
)
