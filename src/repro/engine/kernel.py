"""The loop kernel: one iterative-refinement skeleton for every flow.

The paper's case studies (Figs. 3-6) are all instances of a single loop —
generate candidates, evaluate with EDA tools, select, feed back — and each
of the repo's nine flows, the agent pipeline, the SLT optimizer and the HLS
repair engine used to hand-roll it.  This module hosts the two shared
skeletons they now run on:

* :class:`LoopKernel` — the bare round loop: round counting, optional
  per-round tracing spans, :class:`~repro.engine.budget.Budget`
  enforcement, engine counters, and a :class:`~repro.engine.record.RunRecord`
  ledger.  Loops with irregular bodies (the agent loop, the SLT
  iteration, HLS repair rounds) plug a ``step`` closure straight into it.
* :class:`RefinementEngine` — the candidate-loop specialisation: pluggable
  ``candidates``, ``evaluate``, ``select``, ``annotate``, ``stop_after``
  and ``feedback`` hooks, with automatic per-round :class:`RoundLog`
  entries.

Both are deliberately *hooks-over-inheritance*: flows keep their state in
closures, the kernel owns only the loop mechanics, so rebasing a flow
changes where its loop runs without changing what any round computes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from ..obs import NOOP_SPAN, get_metrics, get_tracer
from .budget import Budget
from .record import RoundLog, RunRecord


@dataclass
class RoundState:
    """Mutable per-run state threaded through every hook."""

    record: RunRecord
    round_no: int = 0            # 1-based once the first round starts
    feedback: str = ""           # conditioning text for the next candidates
    best: Any = None             # flow-defined best-so-far payload
    scratch: dict = field(default_factory=dict)


@dataclass
class Selection:
    """What a selector hands back to the kernel for one round."""

    best_index: int
    best_candidate: Any
    best_outcome: Any
    best_score: float
    scores: list[float] = field(default_factory=list)
    ranked: list[tuple[float, Any, Any]] = field(default_factory=list)


class LoopKernel:
    """The bare round loop (see module docstring).

    ``step(state, span)`` runs one round and returns a stop reason or
    ``None``; ``stop(state)`` is checked *before* each round (loop-shape
    bounds like depth or max turns); ``budget`` is checked before each
    round too, so a started round always completes.  ``span_name=None``
    runs rounds without a kernel span — for loops that already emit their
    own span structure (the agent's per-stage spans).
    """

    def __init__(self, *,
                 step: Callable[[RoundState, Any], str | None],
                 stop: Callable[[RoundState], str | None] | None = None,
                 budget: Budget | None = None,
                 record: RunRecord | None = None,
                 max_rounds: int | None = None,
                 span_name: str | None = None,
                 span_attrs: Callable[[RoundState], dict] | None = None,
                 clock: Callable[[], float] = time.monotonic):
        self.step = step
        self.stop = stop
        self.budget = budget
        self.record = record if record is not None else RunRecord()
        self.max_rounds = max_rounds
        self.span_name = span_name
        self.span_attrs = span_attrs
        self.clock = clock

    def run(self) -> RunRecord:
        record = self.record
        state = RoundState(record=record)
        started = self.clock()
        tracer = get_tracer()
        metrics = get_metrics()
        while True:
            reason = self._pre_round(state, started)
            if reason is not None:
                record.stop_reason = reason
                break
            state.round_no += 1
            record.rounds_used = state.round_no
            metrics.counter("engine.rounds").add()
            if self.span_name is None:
                reason = self.step(state, NOOP_SPAN)
            else:
                attrs = self.span_attrs(state) if self.span_attrs \
                    else {"round_no": state.round_no}
                with tracer.span(self.span_name, **attrs) as sp:
                    reason = self.step(state, sp)
            if reason is not None:
                record.stop_reason = reason
                break
        return record

    def _pre_round(self, state: RoundState, started: float) -> str | None:
        if self.max_rounds is not None and state.round_no >= self.max_rounds:
            return "rounds"
        if self.stop is not None:
            reason = self.stop(state)
            if reason is not None:
                return reason
        if self.budget is not None and not self.budget.unlimited:
            reason = self.budget.exhausted(self.record,
                                           self.clock() - started)
            if reason is not None:
                self.record.budget_exhausted = reason
                get_metrics().counter("engine.budget_exhausted").add()
                return reason
        return None


class RefinementEngine:
    """Generate → evaluate → select → feed back, on the :class:`LoopKernel`.

    Hooks (flows keep their cross-round state in closures):

    * ``candidates(state) -> list`` — this round's candidates, in sample
      order;
    * ``evaluate(state, candidates) -> list`` — tool outcomes, one per
      candidate, submission order;
    * ``select(state, candidates, outcomes) -> Selection``;
    * ``annotate(span, state, selection)`` — optional per-round span attrs;
    * ``stop_after(state, selection) -> str | None`` — post-selection stop;
    * ``feedback(state, selection) -> str`` — conditioning for next round.

    The engine counts generations/evaluations on the record and, with
    ``log_rounds``, appends a :class:`RoundLog` per round *before* the
    feedback hook runs (so the log shows the feedback each round consumed,
    not the feedback it produced).

    ``critic(state, candidates) -> list[Verdict]`` is the optional
    post-generation validation hook (see :mod:`repro.critic`).  Verdicts
    are recorded on the run record; with ``critic_filter`` (the default)
    rejected candidates are dropped before evaluation — unless *every*
    candidate is rejected, in which case all are kept (the loop must
    still produce a best-so-far).  Rejected candidates' verdicts are
    appended to the next round's feedback as repair context.  Flows whose
    selectors index candidates positionally (the hierarchical A/B
    comparison) pass ``critic_filter=False`` to keep annotate-only
    semantics.  With ``critic=None`` — the default, and what
    ``resolve_critic`` yields when ``REPRO_CRITIC=0`` — the step body is
    exactly the pre-critic code path.
    """

    def __init__(self, *,
                 candidates: Callable[[RoundState], list],
                 evaluate: Callable[[RoundState, list], list],
                 select: Callable[[RoundState, list, list], Selection],
                 annotate: Callable[[Any, RoundState, Selection], None]
                 | None = None,
                 stop_after: Callable[[RoundState, Selection], str | None]
                 | None = None,
                 feedback: Callable[[RoundState, Selection], str]
                 | None = None,
                 stop: Callable[[RoundState], str | None] | None = None,
                 budget: Budget | None = None,
                 record: RunRecord | None = None,
                 max_rounds: int | None = None,
                 span_name: str | None = "engine.round",
                 span_attrs: Callable[[RoundState], dict] | None = None,
                 log_rounds: bool = True,
                 critic: Callable[[RoundState, list], list] | None = None,
                 critic_filter: bool = True,
                 clock: Callable[[], float] = time.monotonic):
        self.candidates = candidates
        self.evaluate = evaluate
        self.select = select
        self.annotate = annotate
        self.stop_after = stop_after
        self.feedback = feedback
        self.log_rounds = log_rounds
        self.critic = critic
        self.critic_filter = critic_filter
        self.kernel = LoopKernel(step=self._step, stop=stop, budget=budget,
                                 record=record, max_rounds=max_rounds,
                                 span_name=span_name, span_attrs=span_attrs,
                                 clock=clock)

    @property
    def record(self) -> RunRecord:
        return self.kernel.record

    def run(self) -> RunRecord:
        return self.kernel.run()

    def _step(self, state: RoundState, sp) -> str | None:
        record = state.record
        metrics = get_metrics()
        cands = self.candidates(state)
        record.generations += len(cands)
        metrics.counter("engine.generations").add(len(cands))
        round_verdicts = []
        if self.critic is not None and cands:
            round_verdicts = self.critic(state, cands)
            record.critic_reviews += len(round_verdicts)
            rejected = {i for i, v in enumerate(round_verdicts) if not v.ok}
            record.critic_rejections += len(rejected)
            record.critic_verdicts.append({
                "round": state.round_no,
                "verdicts": [v.summary() for v in round_verdicts]})
            if self.critic_filter and rejected and len(rejected) < len(cands):
                cands = [c for i, c in enumerate(cands) if i not in rejected]
        outcomes = self.evaluate(state, cands)
        record.tool_evaluations += len(outcomes)
        metrics.counter("engine.evaluations").add(len(outcomes))
        selection = self.select(state, cands, outcomes)
        if self.log_rounds:
            record.rounds.append(RoundLog(
                state.round_no, list(selection.scores),
                selection.best_score, state.feedback[:80]))
        if self.annotate is not None:
            self.annotate(sp, state, selection)
        if self.stop_after is not None:
            reason = self.stop_after(state, selection)
            if reason is not None:
                return reason
        if self.feedback is not None:
            state.feedback = self.feedback(state, selection)
        if any(not v.ok for v in round_verdicts):
            from ..critic.verdict import verdicts_feedback
            repair = verdicts_feedback(round_verdicts)
            state.feedback = (state.feedback + "\n" + repair
                              if state.feedback else repair)
        return None


def rank_by_score(candidates: list, outcomes: list,
                  score: Callable[[Any], float]) -> Selection:
    """The workhorse selector: score every (candidate, outcome) pair, rank
    descending with a stable sort (submission order breaks ties — the same
    tie-break the hand-rolled loops used)."""
    ranked = [(score(outcome), cand, outcome)
              for cand, outcome in zip(candidates, outcomes)]
    ranked.sort(key=lambda item: -item[0])
    best_score, best_cand, best_outcome = ranked[0]
    best_index = next(i for i, c in enumerate(candidates)
                      if c is best_cand)
    return Selection(best_index=best_index, best_candidate=best_cand,
                     best_outcome=best_outcome, best_score=best_score,
                     scores=[r[0] for r in ranked], ranked=ranked)
