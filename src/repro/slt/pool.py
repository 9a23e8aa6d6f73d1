"""Candidate pool with Levenshtein-forced diversity (Section V).

The paper: "The Levenshtein distance is introduced to force the pool to be
more diverse, because otherwise the LLM will converge towards very similar
snippets and become stuck in a local optimum."
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..llm.tokenizer import token_levenshtein
from .snippets import SnippetGenome

_EMPTY_POOL_DISTANCE = 1 << 30


@dataclass
class Candidate:
    source: str
    genome: SnippetGenome | None
    power_w: float
    snippet_id: int

    def __repr__(self) -> str:
        return f"Candidate(#{self.snippet_id}, {self.power_w:.3f}W)"


@dataclass
class CandidatePool:
    """Fixed-capacity, diversity-enforcing pool of scored snippets."""

    capacity: int = 12
    min_distance: int = 8          # token-Levenshtein admission threshold
    entries: list[Candidate] = field(default_factory=list)
    rejected_similar: int = 0
    rejected_weak: int = 0

    @property
    def best(self) -> Candidate | None:
        if not self.entries:
            return None
        return max(self.entries, key=lambda c: c.power_w)

    @property
    def worst(self) -> Candidate | None:
        if not self.entries:
            return None
        return min(self.entries, key=lambda c: c.power_w)

    def _distances(self, source: str) -> list[int]:
        return [token_levenshtein(source, c.source,
                                  limit=self.min_distance * 4)
                for c in self.entries]

    def distance_to_pool(self, source: str) -> int:
        """Smallest token-Levenshtein distance to any pool member."""
        return min(self._distances(source), default=_EMPTY_POOL_DISTANCE)

    def consider(self, candidate: Candidate) -> bool:
        """Admission rule: keep if the pool has room, or if the candidate
        beats the worst member *and* is diverse enough."""
        distances = self._distances(candidate.source)
        distance = min(distances, default=_EMPTY_POOL_DISTANCE)
        if distance <= self.min_distance:
            # Too similar: only admit if it strictly improves on the closest
            # member (replace-in-place keeps diversity stable).
            closest = self.entries[distances.index(distance)]
            if candidate.power_w > closest.power_w:
                self.entries.remove(closest)
                self.entries.append(candidate)
                return True
            self.rejected_similar += 1
            return False
        if len(self.entries) < self.capacity:
            self.entries.append(candidate)
            return True
        worst = self.worst
        assert worst is not None
        if candidate.power_w > worst.power_w:
            self.entries.remove(worst)
            self.entries.append(candidate)
            return True
        self.rejected_weak += 1
        return False

    def sample_examples(self, n: int, rng: random.Random) -> list[Candidate]:
        """Random examples for the prompt (the paper picks n at random)."""
        if not self.entries:
            return []
        n = min(n, len(self.entries))
        return rng.sample(self.entries, n)

    def mean_pairwise_distance(self, limit: int = 200) -> float:
        """Pool diversity metric (token-Levenshtein, sampled pairs)."""
        if len(self.entries) < 2:
            return 0.0
        total = 0
        count = 0
        for i in range(len(self.entries)):
            for j in range(i + 1, len(self.entries)):
                total += token_levenshtein(self.entries[i].source,
                                           self.entries[j].source, limit=limit)
                count += 1
        return total / count if count else 0.0
