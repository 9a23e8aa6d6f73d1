"""Structured critic verdicts with a failure taxonomy.

A :class:`Verdict` is the unit of communication between the critic and
the rest of the run engine: rule validators emit verdicts, the engine
records them on the :class:`~repro.engine.record.RunRecord`, and
rejected candidates render their verdict back into the next round's
refine prompt via :meth:`Verdict.feedback`.

The taxonomy is deliberately small and closed — every failure a critic
rule can raise maps to exactly one label, which is what the calibration
suite asserts against (see ``tests/test_critic_corpus.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

# -- failure taxonomy ---------------------------------------------------------
#
# One label per failure class; the corpus bridge asserts each labeled
# adversarial candidate is flagged with exactly its expected label.

TAX_SYNTAX = "syntax"          # does not parse / elaborate
TAX_LINT = "lint"              # blocking lint diagnostic (undeclared, multidrive)
TAX_WIDTH = "width"            # width mismatch (ternary arms, assignment)
TAX_XPROP = "xprop"            # net read but never driven -> permanent X
TAX_VACUITY = "vacuity"        # structurally vacuous check / malformed expectation
TAX_DEAD_RESET = "dead-reset"  # register written only under reset
TAX_TROJAN = "trojan"          # rare-trigger corruption mux
TAX_PRAGMA = "pragma"          # illegal HLS pragma for the synthesizable subset

ALL_TAXONOMIES = (
    TAX_SYNTAX, TAX_LINT, TAX_WIDTH, TAX_XPROP, TAX_VACUITY,
    TAX_DEAD_RESET, TAX_TROJAN, TAX_PRAGMA,
)


@dataclass(frozen=True)
class CriticFailure:
    """One rule hit: taxonomy label, rule id, human detail."""

    taxonomy: str
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.taxonomy}] {self.rule}: {self.detail}"


@dataclass
class Verdict:
    """Outcome of reviewing one candidate.

    ``stage`` names the stage that produced the verdict ("rules"); run
    records and planner observations carry it.  A verdict with no
    failures is accepting (``ok=True``).
    """

    ok: bool
    stage: str = "rules"
    failures: tuple[CriticFailure, ...] = ()
    detail: str = ""

    def labels(self) -> tuple[str, ...]:
        """Distinct taxonomy labels, in first-hit order."""
        seen: list[str] = []
        for failure in self.failures:
            if failure.taxonomy not in seen:
                seen.append(failure.taxonomy)
        return tuple(seen)

    def feedback(self) -> str:
        """Render this verdict as repair context for a refine prompt."""
        if self.ok:
            return ""
        lines = ["CRITIC: candidate rejected by validation"]
        for failure in self.failures:
            lines.append(f"- {failure}")
        return "\n".join(lines)

    def summary(self) -> dict:
        """Plain-dict form for run-record annotation and reports."""
        return {
            "ok": self.ok,
            "stage": self.stage,
            "labels": list(self.labels()),
        }


ACCEPT = Verdict(ok=True)


def verdicts_feedback(verdicts: list["Verdict"],
                      limit: int = 3) -> str:
    """Repair context covering every rejected verdict in a batch.

    ``limit`` caps how many rejected candidates are rendered so refine
    prompts stay bounded; the count line always reports the true total.
    """
    rejected = [(i, v) for i, v in enumerate(verdicts) if not v.ok]
    if not rejected:
        return ""
    lines = [f"CRITIC: {len(rejected)} of {len(verdicts)} candidates "
             "rejected by validation"]
    for index, verdict in rejected[:limit]:
        for failure in verdict.failures:
            lines.append(f"- candidate {index}: {failure}")
    return "\n".join(lines)
