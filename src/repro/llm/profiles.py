"""Capability profiles for the simulated LLMs.

The paper's experiments compare *classes* of models — finetuned
autocompletion models (DAVE, VeriGen, RTLCoder), general conversational
models (ChatGPT-3.5/4/4o) and domain-finetuned instruct models (CL-Verilog,
the finetuned Code Llama used for SLT).  What the experiments measure is not
raw model quality but how capability interacts with the surrounding loop:
feedback iterations, candidate sampling, prompting strategy, RAG.

A :class:`ModelProfile` encodes exactly the capability axes those loops are
sensitive to.  All values are probabilities/weights consumed by the fault
injector and repair machinery in ``repro.llm.model``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ModelProfile:
    """Capability description of one (simulated) model.

    Attributes
    ----------
    syntax_reliability:
        Probability that one generated code unit carries no syntax fault.
    semantic_reliability:
        Probability that one generated code unit carries no logic fault.
    feedback_comprehension:
        Probability that, given tool feedback naming a failure, the model
        repairs the *right* fault.  The paper observes only the strongest
        models exploit EDA tool error messages (AutoChip, Section IV).
    spec_comprehension:
        Probability of correctly interpreting an open-ended natural-language
        spec (low for autocompletion-style models like DAVE).
    instruction_following:
        How well the model sticks to requested output structure
        (conversational/instruct models score high).
    generation_diversity:
        How strongly temperature increases output variance.
    verilog_strength:
        Domain prior for Verilog (finetuning lifts this).
    c_strength:
        Domain prior for C (matters for the SLT case study).
    realworld_code_prior:
        Tendency to generate code resembling real-world software — the SLT
        section argues LLM snippets, unlike GP output, look like end-user
        code.
    context_items:
        How many few-shot examples the model can actually exploit.
    params_b:
        Parameter count in billions (for cost/size comparisons).
    """

    name: str
    family: str
    params_b: float
    instruct: bool
    syntax_reliability: float
    semantic_reliability: float
    feedback_comprehension: float
    spec_comprehension: float
    instruction_following: float
    generation_diversity: float
    verilog_strength: float
    c_strength: float
    realworld_code_prior: float
    context_items: int
    release_year: int

    def __post_init__(self) -> None:
        for field_name in ("syntax_reliability", "semantic_reliability",
                           "feedback_comprehension", "spec_comprehension",
                           "instruction_following", "generation_diversity",
                           "verilog_strength", "c_strength",
                           "realworld_code_prior"):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field_name}={value} outside [0, 1] "
                                 f"for model '{self.name}'")
        if self.params_b <= 0:
            raise ValueError(f"params_b must be positive for '{self.name}'")

    def effective_verilog_quality(self) -> float:
        """Aggregate single-shot Verilog quality (used for quick ranking)."""
        return (0.3 * self.syntax_reliability
                + 0.4 * self.semantic_reliability
                + 0.3 * self.verilog_strength)

    def scaled(self, **overrides: float) -> "ModelProfile":
        """A copy with some capability fields replaced (for ablations)."""
        import dataclasses
        return dataclasses.replace(self, **overrides)
