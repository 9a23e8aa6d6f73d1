"""``repro.critic`` — rule-based candidate validation for the run engine.

The paper's survey half stresses that LLM-generated RTL/HLS artifacts
are plausible-but-wrong often enough that every production flow needs a
verification backstop between generation and tool execution.  This
package is that backstop: deterministic rule validators
(:mod:`repro.critic.rules`) built on the in-repo parser/linter, with a
closed failure taxonomy.

Everything is gated behind ``REPRO_CRITIC``, **off by default**: with the
knob unset, :func:`resolve_critic` returns ``None`` and every flow takes
exactly its pre-critic code path — the engine golden fixtures replay
byte-identical.
"""

from __future__ import annotations

from ..obs import get_metrics, get_tracer
from .rules import (validate_assertion, validate_expectation,
                    validate_pragmas, validate_rtl)
from .verdict import (ACCEPT, ALL_TAXONOMIES, CriticFailure, Verdict,
                      verdicts_feedback)

__all__ = [
    "ACCEPT", "ALL_TAXONOMIES", "Critic", "CriticFailure", "Verdict",
    "resolve_critic", "validate_assertion", "validate_expectation",
    "validate_pragmas", "validate_rtl", "verdicts_feedback",
]


class Critic:
    """Front-end over the rule validators.

    One instance is resolved per flow run (:func:`resolve_critic`); its
    verdicts are pure functions of the candidate text, so review order
    and parallelism cannot change any verdict.
    """

    def __init__(self, flow: str = ""):
        self.flow = flow

    # -- single-candidate review ---------------------------------------------

    def review_source(self, text: str,
                      module_name: str | None = None) -> Verdict:
        return validate_rtl(text, module_name)

    # -- batch review (what the engine hook uses) ----------------------------

    def review(self, texts: list[str],
               module_name: str | None = None) -> list[Verdict]:
        tracer = get_tracer()
        with tracer.span("critic.review", flow=self.flow, n=len(texts)):
            verdicts = [self.review_source(t, module_name) for t in texts]
        metrics = get_metrics()
        metrics.counter("critic.candidates").add(len(verdicts))
        rejected = [v for v in verdicts if not v.ok]
        if rejected:
            metrics.counter("critic.rejected").add(len(rejected))
            for verdict in rejected:
                for label in verdict.labels():
                    metrics.counter(f"critic.flag.{label}").add()
        return verdicts

    def engine_hook(self, text_of=None, module_name: str | None = None):
        """Adapter for :class:`~repro.engine.kernel.RefinementEngine`.

        ``text_of`` extracts candidate text (defaults to ``.text``, the
        shape every simulated-model generation uses).
        """
        if text_of is None:
            text_of = lambda c: c.text  # noqa: E731

        def hook(state, candidates):
            return self.review([text_of(c) for c in candidates], module_name)

        return hook

    # -- artifact screens (assertgen / autobench) ----------------------------

    def screen_assertions(self, assertions):
        """Split mined assertions into (kept, rejected-with-verdicts)."""
        kept, rejected = [], []
        for assertion in assertions:
            verdict = validate_assertion(assertion.stimulus,
                                         assertion.expected)
            if verdict.ok:
                kept.append(assertion)
            else:
                rejected.append((assertion, verdict))
        metrics = get_metrics()
        metrics.counter("critic.candidates").add(len(assertions))
        if rejected:
            metrics.counter("critic.rejected").add(len(rejected))
            for _, verdict in rejected:
                for label in verdict.labels():
                    metrics.counter(f"critic.flag.{label}").add()
        return kept, rejected

    def screen_testbench(self, tb):
        """Drop testbench check rows whose expected values are malformed.

        Returns ``(tb, dropped)``; the testbench is modified in place
        (vectors and expectation rows stay aligned).  Only literal
        *shape* is checked — the reference is never consulted.
        """
        keep = [i for i, row in enumerate(tb.expectations)
                if not any(validate_expectation(v) for v in row.values())]
        dropped = len(tb.expectations) - len(keep)
        if dropped:
            tb.vectors = [tb.vectors[i] for i in keep]
            tb.expectations = [tb.expectations[i] for i in keep]
            metrics = get_metrics()
            metrics.counter("critic.rejected").add(dropped)
            metrics.counter("critic.flag.vacuity").add(dropped)
        get_metrics().counter("critic.candidates").add(dropped + len(keep))
        return tb, dropped


def resolve_critic(flow: str = "") -> Critic | None:
    """A :class:`Critic` when ``REPRO_CRITIC=1``, else ``None``.

    The ``None`` return is the byte-identity guarantee: callers wire the
    critic only when one is resolved, so the default configuration runs
    the exact pre-critic code path.
    """
    from ..config import get_settings
    if not get_settings().critic_enabled:
        return None
    return Critic(flow=flow)
