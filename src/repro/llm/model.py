"""The simulated LLM: reference-perturbation code generation.

How the simulation works
------------------------
Each generation task carries a *reference solution* (the benchmark's golden
design).  A model "generates" code by copying the reference, applying
harmless style variation (so distinct samples differ textually, which the
self-consistency flows rely on), and injecting faults sampled from the
taxonomy in :mod:`repro.llm.faults`.  Fault counts depend on the model's
capability profile, the task complexity, the prompting strategy and the
sampling temperature — calibrated so the loop-level phenomena the paper
reports emerge (see DESIGN.md §4).

Refinement against tool feedback removes injected faults with probability
driven by ``feedback_comprehension`` (precise compile errors are easier than
vague simulation failures), reproducing AutoChip's observation that only the
strongest models profit from feedback.

The injected-fault ledger is carried on the :class:`Generation` object for
*experiment introspection only*; no flow logic reads it to make decisions —
flows see only the generated text and real tool output.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field

from .faults import (ALL_FAULTS, INTERFACE_FAULTS, LOGIC_FAULTS,
                     SYNTAX_FAULTS, FaultSpec, fault_by_id)
from .profiles import ModelProfile
from .prompts import Prompt, PromptEffects, PromptStrategy, prompt_effects
from .registry import get_model
from .tokenizer import count_tokens


@dataclass(frozen=True)
class GenerationTask:
    """One code-generation task with a hidden golden solution."""

    task_id: str
    spec: str
    reference_source: str
    complexity: int = 2           # 1 (novice) .. 5 (realistic design)
    language: str = "verilog"
    open_ended: bool = False      # open-ended specs need spec comprehension

    def __post_init__(self) -> None:
        if not 1 <= self.complexity <= 5:
            raise ValueError(f"complexity must be in 1..5, got {self.complexity}")


@dataclass
class Generation:
    """One model output plus bookkeeping."""

    text: str
    faults: tuple[tuple[str, int], ...]   # (fault_id, fault_seed) ledger
    prompt_tokens: int
    completion_tokens: int
    style_seed: int
    misinterpreted: bool = False


@dataclass
class UsageStats:
    calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0

    def record(self, prompt_tokens: int, completion_tokens: int,
               calls: int = 1) -> None:
        self.calls += calls
        self.prompt_tokens += prompt_tokens
        self.completion_tokens += completion_tokens

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


def _stable_seed(*parts: object) -> int:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


class SimulatedLLM:
    """A deterministic, capability-profiled stand-in for a hosted LLM."""

    def __init__(self, model: str | ModelProfile, seed: int = 0):
        self.profile = get_model(model) if isinstance(model, str) else model
        self.seed = seed
        self.usage = UsageStats()

    # -- public API -----------------------------------------------------------

    def derive(self, seed: int) -> "SimulatedLLM":
        """A fresh client with the same profile but a new seed (the reseed
        hook the agent's re-open path and sweep loops use; also part of the
        :class:`repro.llm.client.LLMClient` protocol)."""
        return SimulatedLLM(self.profile, seed=seed)

    def chat(self, system: str = ""):
        """Open a conversational session bound to this client."""
        from .chat import ChatSession
        return ChatSession(self, system=system)

    def generate(self, task: GenerationTask, prompt: Prompt | None = None,
                 temperature: float = 0.7, sample_index: int = 0) -> Generation:
        """Produce one candidate solution for ``task``."""
        prompt = prompt or Prompt(spec=task.spec)
        effects = prompt_effects(self.profile, prompt, task.complexity)
        rng = random.Random(_stable_seed(
            self.seed, self.profile.name, task.task_id, prompt.strategy.value,
            round(temperature, 3), sample_index, len(prompt.feedback)))

        complexity = max(1, min(5, task.complexity
                                + effects.effective_complexity_delta))
        misinterpreted = False
        if task.open_ended and rng.random() > self.profile.spec_comprehension:
            misinterpreted = True

        fault_plan = self._plan_faults(task, complexity, temperature, effects,
                                       misinterpreted, rng)
        style_seed = rng.getrandbits(32)
        text, fault_plan = self._materialize(task.reference_source, fault_plan,
                                             style_seed)

        prompt_tokens = count_tokens(prompt.render())
        completion_tokens = count_tokens(text)
        self.usage.record(prompt_tokens, completion_tokens,
                          calls=1 + effects.extra_calls)
        return Generation(text, tuple(fault_plan), prompt_tokens,
                          completion_tokens, style_seed, misinterpreted)

    def refine(self, task: GenerationTask, previous: Generation,
               feedback: str, temperature: float = 0.7,
               sample_index: int = 0) -> Generation:
        """Repair a previous candidate given tool feedback."""
        # The feedback text goes through the SHA-256 _stable_seed like every
        # other seed component: builtin str hashing is randomized per process
        # (PYTHONHASHSEED), so seeding from hash(feedback) made "deterministic"
        # repair loops differ across interpreter invocations.
        rng = random.Random(_stable_seed(
            self.seed, self.profile.name, task.task_id, "refine",
            previous.style_seed, round(temperature, 3), sample_index,
            feedback))

        compile_error = "COMPILE" in feedback.upper() \
            or "syntax" in feedback.lower()
        remaining: list[tuple[str, int]] = []
        for fault_id, fault_seed in previous.faults:
            spec = fault_by_id(fault_id)
            fixed = rng.random() < self._fix_probability(spec, compile_error,
                                                         feedback)
            if not fixed:
                remaining.append((fault_id, fault_seed))

        # Misinterpretation can be cured only by informative feedback and a
        # model that reads it.
        misinterpreted = previous.misinterpreted
        if misinterpreted and not compile_error and feedback:
            if rng.random() < self.profile.feedback_comprehension * 0.6:
                misinterpreted = False
                remaining = [f for f in remaining
                             if fault_by_id(f[0]).klass != "logic"] \
                    + [f for f in remaining
                       if fault_by_id(f[0]).klass == "logic"][:1]

        # Regression risk: a model that does not understand the tool
        # feedback thrashes — it rewrites working logic while "fixing" the
        # reported problem.  This is the mechanism behind the AutoChip
        # observation that only the strongest models profit from feedback.
        regression_p = min(0.5, (1.0 - self.profile.semantic_reliability)
                           * (1.0 - self.profile.feedback_comprehension)
                           * 0.8 * (0.5 + temperature / 2))
        if rng.random() < regression_p:
            new_fault = rng.choice(LOGIC_FAULTS)
            remaining.append((new_fault.fault_id, rng.getrandbits(32)))

        text, remaining = self._materialize(task.reference_source, remaining,
                                            previous.style_seed)
        prompt_tokens = count_tokens(task.spec) + count_tokens(feedback) \
            + previous.completion_tokens
        completion_tokens = count_tokens(text)
        self.usage.record(prompt_tokens, completion_tokens)
        return Generation(text, tuple(remaining), prompt_tokens,
                          completion_tokens, previous.style_seed,
                          misinterpreted)

    def generate_many(self, task: GenerationTask,
                      prompt: Prompt | None = None,
                      temperature: float = 0.7, *,
                      sample_indices=(0,)) -> "list[Generation]":
        """``k`` candidates, one per sample index.  Each candidate is keyed
        by the same ``(task, temperature, sample_index)`` tuple as a lone
        :meth:`generate` call, so batched and one-at-a-time sampling are
        byte-identical."""
        return [self.generate(task, prompt, temperature, sample_index=i)
                for i in sample_indices]

    def apply_human_fix(self, task: GenerationTask,
                        previous: Generation) -> Generation:
        """Simulate precise human feedback: an experienced engineer points at
        one concrete defect and the model fixes exactly that (Chip-Chat's
        human-in-the-loop escalation).  Removes the first remaining fault;
        cures misinterpretation first when present."""
        remaining = list(previous.faults)
        misinterpreted = previous.misinterpreted
        if misinterpreted:
            misinterpreted = False
            logic = [f for f in remaining
                     if fault_by_id(f[0]).klass == "logic"]
            for fault in logic[1:]:
                remaining.remove(fault)
        elif remaining:
            remaining.pop(0)
        text, remaining = self._materialize(task.reference_source, remaining,
                                            previous.style_seed)
        prompt_tokens = previous.completion_tokens + 64
        completion_tokens = count_tokens(text)
        self.usage.record(prompt_tokens, completion_tokens)
        return Generation(text, tuple(remaining), prompt_tokens,
                          completion_tokens, previous.style_seed,
                          misinterpreted)

    # -- fault planning -----------------------------------------------------------

    def _plan_faults(self, task: GenerationTask, complexity: int,
                     temperature: float, effects: PromptEffects,
                     misinterpreted: bool,
                     rng: random.Random) -> list[tuple[str, int]]:
        profile = self.profile
        domain = profile.verilog_strength if task.language == "verilog" \
            else profile.c_strength
        complexity_factor = 1.0 + 0.65 * (complexity - 1)
        temp_factor = 1.0 + profile.generation_diversity \
            * effects.diversity_factor * max(0.0, temperature - 0.4)

        syntax_rate = ((1.0 - profile.syntax_reliability)
                       * complexity_factor * temp_factor
                       * effects.syntax_factor * (1.4 - 0.5 * domain))
        logic_rate = ((1.0 - profile.semantic_reliability)
                      * complexity_factor * temp_factor
                      * effects.semantic_factor * (1.6 - 0.8 * domain))
        interface_rate = 0.4 * syntax_rate

        if misinterpreted:
            logic_rate = min(3.0, logic_rate + 1.5)

        plan: list[tuple[str, int]] = []
        plan.extend(self._draw(SYNTAX_FAULTS, syntax_rate, 2, rng))
        plan.extend(self._draw(LOGIC_FAULTS, logic_rate, 3, rng))
        plan.extend(self._draw(INTERFACE_FAULTS, interface_rate, 1, rng))
        return plan

    @staticmethod
    def _draw(pool: tuple[FaultSpec, ...], rate: float, max_count: int,
              rng: random.Random) -> list[tuple[str, int]]:
        out: list[tuple[str, int]] = []
        remaining = rate
        for _ in range(max_count):
            p = min(0.95, remaining)
            if p <= 0 or rng.random() >= p:
                break
            spec = rng.choice(pool)
            out.append((spec.fault_id, rng.getrandbits(32)))
            remaining -= 1.0
        return out

    def _fix_probability(self, spec: FaultSpec, compile_error: bool,
                         feedback: str) -> float:
        fc = self.profile.feedback_comprehension
        if spec.klass == "syntax":
            # Compile errors point at the line; even weak models often fix them.
            return 0.45 + 0.5 * fc if compile_error else 0.25 + 0.4 * fc
        if spec.klass == "interface":
            return 0.35 + 0.5 * fc
        # Logic faults: feedback is vague pass/fail text.  Exploiting it
        # requires both locating the defect and deriving the fix, so the
        # success probability is superlinear in comprehension — the reason
        # "only the most capable models leverage EDA tool feedback".
        # Exception: cross-level divergence reports (Section VI's high-level
        # guided debugging) localize the defect to concrete inputs and
        # expected values, which removes the localization burden.
        if "cross-check" in feedback:
            return min(0.95, 0.35 + 0.6 * fc)
        informative = "FAIL" in feedback or "expected" in feedback.lower()
        return fc * fc * (0.95 if informative else 0.6)

    # -- text materialization -------------------------------------------------------

    def _materialize(self, reference: str, faults: list[tuple[str, int]],
                     style_seed: int) -> tuple[str, list[tuple[str, int]]]:
        """Apply faults to a styled copy of the reference.

        Faults whose pattern does not occur in the text are dropped from the
        ledger so the ledger always reflects actual damage.
        """
        text = self._style_variation(reference, style_seed)
        applied: list[tuple[str, int]] = []
        for fault_id, fault_seed in faults:
            spec = fault_by_id(fault_id)
            mutated = spec.apply(text, random.Random(fault_seed))
            if mutated is not None and mutated != text:
                text = mutated
                applied.append((fault_id, fault_seed))
        return text, applied

    def _style_variation(self, source: str, style_seed: int) -> str:
        """Behaviour-preserving textual variation between samples."""
        rng = random.Random(style_seed)
        text = source
        # Rename internal (non-port) wires/regs.
        ports: set[str] = set()
        for m in re.finditer(r"(?:input|output)\s+(?:reg\s+|wire\s+)?"
                             r"(?:\[[^\]]*\]\s*)?(\w+)", text):
            ports.add(m.group(1))
        internals: list[str] = []
        for m in re.finditer(r"^\s*(?:wire|reg)\s+(?:\[[^\]]*\]\s*)?(\w+)",
                             text, flags=re.M):
            name = m.group(1)
            if name not in ports and name not in internals:
                internals.append(name)
        suffixes = ["_r", "_w", "_sig", "_v", "_q", "_int"]
        for name in internals:
            if rng.random() < 0.5:
                new = name + rng.choice(suffixes)
                text = re.sub(rf"\b{name}\b", new, text)
        if rng.random() < 0.6:
            comment = rng.choice([
                "// generated implementation",
                "// candidate solution",
                "// synthesized from specification",
                "// datapath logic",
            ])
            text = comment + "\n" + text
        return text


def make_llm(model: str, seed: int = 0) -> SimulatedLLM:
    """Convenience constructor mirroring a hosted-API client factory."""
    return SimulatedLLM(model, seed=seed)
