"""The planner head: a seeded model that emits structured next-actions.

It is a pure model, as :class:`~repro.llm.model.SimulatedLLM` is: its
``plan(prompt)`` output is a function of ``(prompt text, seed, profile)``
and nothing else, so a plan never depends on call order.

Like every model in this repo the planner is *simulated but honest*:
stronger profiles follow the retrieval-ranked shortlist embedded in the
prompt; weaker ones wander to lower-ranked tools or emit malformed
actions (which surface as validation-error observations, exactly the
failure mode ReAct-style agents show in practice).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from ..llm.model import ModelProfile, _stable_seed

#: Grammar of one planner completion.  ``CALL`` must come first; ``CITE``
#: and ``WHY`` are optional trailers.  Anything else is a malformed action.
ACTION_GRAMMAR = "CALL <tool> <json-args> | CITE <doc,...> | WHY <text>"

_CANDIDATE_PREFIX = "CANDIDATE "


@dataclass(frozen=True)
class PlanAction:
    """One parsed next-action from the planner's completion."""

    tool: str = ""
    args: dict = field(default_factory=dict)
    citations: tuple[str, ...] = ()
    rationale: str = ""
    raw: str = ""
    error: str = ""

    @property
    def malformed(self) -> bool:
        return bool(self.error)


def render_action(tool: str, args: dict, citations: tuple[str, ...] = (),
                  rationale: str = "") -> str:
    """The canonical completion text for one action."""
    parts = [f"CALL {tool} {json.dumps(args, sort_keys=True)}"]
    if citations:
        parts.append("CITE " + ",".join(citations))
    if rationale:
        parts.append("WHY " + rationale)
    return "\n".join(parts)


def parse_action(text: str) -> PlanAction:
    """Parse one completion; malformed text yields an error action.

    Never raises: the planner loop folds the error back into the
    transcript as an observation so the next round can recover.
    """
    tool, args, citations, rationale = "", {}, (), ""
    call_seen = False
    for line in text.strip().splitlines():
        line = line.strip()
        if line.startswith("CALL "):
            call_seen = True
            rest = line[len("CALL "):].strip()
            name, _, arg_text = rest.partition(" ")
            tool = name.strip()
            if arg_text.strip():
                try:
                    parsed = json.loads(arg_text)
                except ValueError:
                    return PlanAction(tool=tool, raw=text,
                                      error=f"unparseable args: {arg_text!r}")
                if not isinstance(parsed, dict):
                    return PlanAction(tool=tool, raw=text,
                                      error="args must be a JSON object")
                args = parsed
        elif line.startswith("CITE "):
            citations = tuple(c.strip() for c in
                              line[len("CITE "):].split(",") if c.strip())
        elif line.startswith("WHY "):
            rationale = line[len("WHY "):].strip()
    if not call_seen or not tool:
        return PlanAction(raw=text,
                          error=f"no CALL line (grammar: {ACTION_GRAMMAR})")
    return PlanAction(tool=tool, args=args, citations=citations,
                      rationale=rationale, raw=text)


def render_candidate(rank: int, tool: str, args: dict,
                     citations: tuple[str, ...], hint: str) -> str:
    """One shortlist row the agent embeds in the planning prompt."""
    return (f"{_CANDIDATE_PREFIX}{rank}: {tool} "
            f"{json.dumps(args, sort_keys=True)} "
            f"[{','.join(citations)}] -- {hint}")


def _parse_candidates(prompt: str) -> list[tuple[str, dict, tuple[str, ...]]]:
    """Recover the ranked shortlist rows from the rendered prompt."""
    out = []
    for line in prompt.splitlines():
        line = line.strip()
        if not line.startswith(_CANDIDATE_PREFIX):
            continue
        _, _, rest = line.partition(": ")
        name, _, tail = rest.partition(" ")
        arg_text, _, tail = tail.partition(" [")
        cites, _, _ = tail.partition("] --")
        try:
            args = json.loads(arg_text) if arg_text.strip() else {}
        except ValueError:
            args = {}
        out.append((name.strip(),
                    args if isinstance(args, dict) else {},
                    tuple(c for c in cites.split(",") if c)))
    return out


class SimulatedPlanner:
    """Deterministic planner head; ``plan`` is a pure function."""

    def __init__(self, profile: ModelProfile, seed: int = 0):
        self.profile = profile
        self.seed = seed

    def _ability(self) -> float:
        """How reliably this profile follows the grounded shortlist."""
        p = self.profile
        return (0.30 + 0.40 * p.spec_comprehension
                + 0.20 * p.feedback_comprehension
                + 0.10 * p.instruction_following)

    def plan(self, prompt: str) -> str:
        """One completion; pure function of (prompt, seed, profile)."""
        rng = random.Random(_stable_seed(self.seed, "plan",
                                         self.profile.name, prompt))
        candidates = _parse_candidates(prompt)
        if not candidates:
            return "CALL finish {}\nWHY no candidate actions offered"
        # Weak instruction followers occasionally break the grammar; the
        # kernel folds the parse error back as an observation.
        if rng.random() < (1.0 - self.profile.instruction_following) * 0.12:
            tool = candidates[0][0]
            return f"I think we should run {tool} next, then re-check."
        if rng.random() < self._ability() or len(candidates) == 1:
            pick = 0
        else:
            # Wander: weight lower ranks geometrically so rank 2 is the
            # common mistake and the tail stays rare.
            pick = min(1 + int(rng.random() * rng.random()
                               * (len(candidates) - 1)),
                       len(candidates) - 1)
        tool, args, citations = candidates[pick]
        rationale = (f"rank-{pick + 1} candidate from grounded shortlist"
                     if pick else "top grounded candidate")
        return render_action(tool, args, citations, rationale)
