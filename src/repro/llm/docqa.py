"""EDA tool-documentation QA with retrieval augmentation (Section II's
"Customized Retrieval Augmented Generation and Benchmarking for EDA Tool
Documentation QA").

The corpus is this repository's own tool surface — lint diagnostics, HLS
error codes, pragma semantics, simulator limits — so the QA flow answers
questions a user of *this* stack would actually ask, and retrieval quality
is measurable against labeled question→document pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs import get_metrics
from .client import resolve_client
from .model import GenerationTask, _stable_seed
from .rag import Document, Retrieval, VectorIndex

# One entry per documented behaviour; doc_id doubles as the ground-truth
# label for the benchmark queries below.
_CORPUS: tuple[tuple[str, str], ...] = (
    ("lint.undecl",
     "LINT-UNDECL: identifier used but never declared. Declare every wire, "
     "reg or integer before use; check for typos in signal names."),
    ("lint.multidrive",
     "LINT-MULTIDRIVE: signal driven from multiple places. A net may have "
     "one continuous assign or one always block driving it, never both or "
     "several."),
    ("lint.blockseq",
     "LINT-BLOCKSEQ: blocking assignment (=) inside a clocked always block. "
     "Use non-blocking (<=) for state elements to avoid simulation races."),
    ("lint.nbacomb",
     "LINT-NBACOMB: non-blocking assignment (<=) in combinational always "
     "block. Use blocking (=) in always @(*) blocks."),
    ("lint.latch",
     "LINT-LATCH: latch inferred because a combinational block does not "
     "assign its output on every path. Add an else branch or a case "
     "default."),
    ("lint.width",
     "LINT-WIDTH: assignment width mismatch between target and expression. "
     "Verilog silently truncates or zero-extends; make widths explicit."),
    ("hls.001",
     "HLS001: dynamic memory allocation (malloc, calloc, free) is not "
     "synthesizable. Replace heap buffers with statically sized local "
     "arrays mapped to BRAM."),
    ("hls.002",
     "HLS002: recursion is not synthesizable because hardware has no call "
     "stack. Convert tail recursion into loops; restructure other "
     "recursion."),
    ("hls.003",
     "HLS003: loop without a statically bounded trip count. Rewrite while "
     "loops as for loops with a constant bound or an iteration budget so "
     "latency analysis can complete."),
    ("hls.004",
     "HLS004: pointer parameter without a bound. Give array parameters an "
     "explicit size or set an interface depth pragma so ports can be "
     "sized."),
    ("hls.005",
     "HLS005: I/O calls such as printf are not synthesizable; hardware "
     "kernels have no stdout. Delete debug prints before synthesis."),
    ("hls.009",
     "HLS009: division or modulo by a runtime value requires a divider "
     "core. Divide by constant powers of two (shifts), or allocate a "
     "divider with an allocation pragma and accept the latency."),
    ("pragma.pipeline",
     "#pragma HLS pipeline II=n overlaps loop iterations with initiation "
     "interval n. Loop-carried dependencies force the achieved II up to "
     "the dependency distance; check the schedule report."),
    ("pragma.unroll",
     "#pragma HLS unroll factor=n replicates the loop body n times, "
     "multiplying resource use and dividing trip count. Full unroll needs "
     "a constant trip count."),
    ("pragma.partition",
     "#pragma HLS array_partition splits an array across memories to "
     "raise bandwidth for unrolled or pipelined loops."),
    ("sim.maxsteps",
     "Simulation error 'runaway execution': a zero-delay loop or "
     "combinational feedback kept the event queue busy at one timestamp. "
     "Check for always blocks without timing controls and for assign "
     "cycles."),
    ("sim.xprop",
     "X propagation: uninitialized regs start as X; arithmetic on X "
     "produces X and comparisons with X are neither true nor false. Reset "
     "state elements before relying on their values."),
    ("synth.divider",
     "The synthesizer only implements division and modulo by constant "
     "powers of two (as shifts and masks). Other divisors raise a "
     "synthesis error."),
)


@dataclass
class Answer:
    question: str
    text: str
    sources: list[Retrieval] = field(default_factory=list)
    # Model-synthesized answers only: True while the answer stayed faithful
    # to the retrieved passage (no hallucination faults landed).
    grounded: bool = True
    model: str = ""

    @property
    def best_source_id(self) -> str:
        return self.sources[0].document.doc_id if self.sources else ""


class DocQa:
    """Retrieval-augmented QA over the tool documentation corpus.

    Extractive by default: the best passage *is* the answer.  Pass a
    ``model`` (profile name, ``SimulatedLLM`` or any ``LLMClient``) to
    synthesize the answer through the unified client seam instead — the
    retrieved passage becomes the generation's reference text, and the
    generation's fault ledger tells us whether the paraphrase stayed
    grounded.  Seeding runs
    through ``_stable_seed`` (the question and the cited doc key the
    generation), so answers are deterministic per (model, seed, question).
    """

    def __init__(self, extra_docs: list[Document] | None = None,
                 model=None, *, seed: int = 0):
        self.index = VectorIndex()
        for doc_id, text in _CORPUS:
            self.index.add(Document(doc_id, text))
        for doc in extra_docs or []:
            self.index.add(doc)
        self.llm = None
        if model is not None:
            self.llm = resolve_client(model, seed=seed)

    def ask(self, question: str, top_k: int = 3) -> Answer:
        get_metrics().counter("docqa.queries").add()
        hits = self.index.query(question, top_k=top_k)
        if not hits:
            return Answer(question, "No relevant documentation found.")
        best = hits[0].document
        if self.llm is not None:
            return self._synthesize(question, best, hits)
        # Extractive answer: lead with the best passage, cite the rest.
        text = best.text
        if len(hits) > 1:
            others = ", ".join(h.document.doc_id for h in hits[1:])
            text += f" (see also: {others})"
        return Answer(question, text, hits)

    def _synthesize(self, question: str, best: Document,
                    hits: list[Retrieval]) -> Answer:
        """Answer through the model client, grounded in the best passage.

        The stable task id folds the question and the cited doc, so the
        same question always draws the same generation regardless of ask
        order.  Questions are open-ended specs: a model that misreads one
        answers from memory instead of the passage —
        the hallucination failure mode RAG is meant to suppress, and what
        ``grounded`` reports (prose dodges the code-idiom fault patterns,
        so misinterpretation is the binding risk here).
        """
        task = GenerationTask(
            task_id=f"docqa:{_stable_seed(question, best.doc_id)}",
            spec=question, reference_source=best.text, complexity=1,
            language="text", open_ended=True)
        generation = self.llm.generate(task, temperature=0.0)
        text = "\n".join(line for line in generation.text.splitlines()
                         if not line.startswith("//")).strip()
        if len(hits) > 1:
            others = ", ".join(h.document.doc_id for h in hits[1:])
            text += f" (see also: {others})"
        text += f" [source: {best.doc_id}]"
        return Answer(question, text, hits,
                      grounded=not generation.misinterpreted
                      and not generation.faults,
                      model=self.llm.profile.name)


# Labeled evaluation set: (question, expected doc_id).
EVAL_QUESTIONS: tuple[tuple[str, str], ...] = (
    ("why does the linter say my signal is driven from two places",
     "lint.multidrive"),
    ("what does latch inferred mean in a combinational block", "lint.latch"),
    ("can I use malloc in a kernel for synthesis", "hls.001"),
    ("my while loop fails HLS with no trip count", "hls.003"),
    ("how do I pipeline a loop with initiation interval 1",
     "pragma.pipeline"),
    ("printf breaks my HLS build", "hls.005"),
    ("recursion error when synthesizing my function", "hls.002"),
    ("simulator reports runaway execution at one time", "sim.maxsteps"),
    ("division by a variable will not synthesize", "hls.009"),
    ("should I use blocking or non-blocking in clocked always",
     "lint.blockseq"),
    ("outputs are x after reset in simulation", "sim.xprop"),
    ("unroll a loop by a factor of four", "pragma.unroll"),
)


def retrieval_accuracy(qa: DocQa | None = None, top_k: int = 1) -> float:
    """Fraction of labeled questions whose expected doc ranks in top_k."""
    qa = qa or DocQa()
    hits = 0
    for question, expected in EVAL_QUESTIONS:
        retrieved = [r.document.doc_id
                     for r in qa.index.query(question, top_k=top_k)]
        if expected in retrieved:
            hits += 1
    return hits / len(EVAL_QUESTIONS)


def answer_faithfulness(model="gpt-4o", *, seed: int = 0) -> float:
    """End-to-end RAG quality: fraction of labeled questions where the
    model-synthesized answer both cites the expected document and stays
    grounded in its passage (no hallucination fault landed)."""
    qa = DocQa(model=model, seed=seed)
    good = 0
    for question, expected in EVAL_QUESTIONS:
        answer = qa.ask(question)
        if answer.grounded and answer.best_source_id == expected:
            good += 1
    return good / len(EVAL_QUESTIONS)
