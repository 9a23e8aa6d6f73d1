"""Stage-two critic: a seeded, simulated LLM judge.

The judge models what a production deployment would get from asking a
second LLM "is this candidate plausible RTL for the task?".  Like every
model in this repo it is *simulated but honest*: the verdict is a pure
function of ``(candidate text, seed)`` — a salted hash drives both the
feature noise and the borderline calls — so it exhibits realistic
false-accept/false-reject behaviour (measured in ``BENCH_critic.json``)
while staying byte-identical across replays.

``judge`` reads nothing but its argument and the constructor seed, so no
call order, batching or worker placement can change a verdict.
"""

from __future__ import annotations

from ..llm.model import _stable_seed
from .verdict import ACCEPT, TAX_JUDGE, CriticFailure, Verdict

# Textual smells a reviewer model would key on.  Each carries a weight;
# the total plus seeded noise is compared against the suspicion
# threshold.  The list is ordered; iteration order is part of the
# deterministic contract.
_SMELLS = (
    ("x_literal", "'bx", 0.25),
    ("corrupt_literal", "_wrong", 0.60),
    ("rare_trigger", "== 8'h", 0.20),
    ("dead_branch", "1'b0) ?", 0.20),
)

_THRESHOLD = 0.5
_NOISE = 0.35


class SimulatedJudge:
    """Deterministic judge; ``judge`` is a pure function."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def judge(self, text: str) -> Verdict:
        """Score one candidate; pure function of (text, self.seed)."""
        score = 0.0
        smells = []
        for name, needle, weight in _SMELLS:
            if needle in text:
                score += weight
                smells.append(name)
        # Salted noise models reviewer uncertainty: near-threshold
        # candidates flip with the seed, which is exactly the
        # false-accept/false-reject behaviour the bench measures.
        noise_seed = _stable_seed(self.seed, "judge", text)
        noise = (noise_seed % 10_000) / 10_000.0 * _NOISE
        score += noise
        if score < _THRESHOLD:
            return ACCEPT
        detail = (f"suspicion {score:.2f} >= {_THRESHOLD}"
                  + (f" ({', '.join(smells)})" if smells else ""))
        return Verdict(ok=False, stage="judge", failures=(
            CriticFailure(TAX_JUDGE, "llm-judge", detail),))
