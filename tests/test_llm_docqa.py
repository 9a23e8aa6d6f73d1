"""Tests for the EDA tool-documentation QA flow."""

from repro.llm import (Document, DocQa, EVAL_QUESTIONS,
                       answer_faithfulness, retrieval_accuracy)


class TestDocQa:
    def test_retrieval_accuracy_top1(self):
        assert retrieval_accuracy(top_k=1) >= 0.6

    def test_retrieval_accuracy_top3(self):
        assert retrieval_accuracy(top_k=3) >= 0.8

    def test_top3_at_least_top1(self):
        assert retrieval_accuracy(top_k=3) >= retrieval_accuracy(top_k=1)

    def test_answer_cites_sources(self):
        qa = DocQa()
        answer = qa.ask("replace malloc heap allocation with a static buffer")
        assert answer.sources
        assert answer.best_source_id == "hls.001"
        assert "malloc" in answer.text or "static" in answer.text

    def test_see_also_links(self):
        qa = DocQa()
        answer = qa.ask("blocking vs non-blocking assignments", top_k=3)
        if len(answer.sources) > 1:
            assert "see also" in answer.text

    def test_no_match_degrades_gracefully(self):
        qa = DocQa()
        answer = qa.ask("zzqx qqqz", top_k=2)
        assert answer.text  # either a passage or the fallback message

    def test_extra_documents_are_searchable(self):
        qa = DocQa(extra_docs=[Document(
            "custom.flow", "the frobnicator pass reorders netlist frobs "
            "for timing closure")])
        answer = qa.ask("what does the frobnicator pass do")
        assert answer.best_source_id == "custom.flow"

    def test_eval_set_is_well_formed(self):
        qa = DocQa()
        known = {doc.doc_id for doc in qa.index.documents}
        for _, expected in EVAL_QUESTIONS:
            assert expected in known


class TestModelSynthesizedAnswers:
    """The LLM-backed answer path: resolve_client seam + stable seeding."""

    def test_deterministic_across_instances(self):
        question = "can I use malloc in a kernel for synthesis"
        first = DocQa(model="gpt-4o", seed=0).ask(question)
        second = DocQa(model="gpt-4o", seed=0).ask(question)
        assert first.text == second.text
        assert first.grounded == second.grounded

    def test_answer_carries_model_and_citation(self):
        answer = DocQa(model="gpt-4o", seed=0).ask(
            "what does latch inferred mean in a combinational block")
        assert answer.model == "gpt-4o"
        assert f"[source: {answer.best_source_id}]" in answer.text

    def test_extractive_path_unchanged_without_model(self):
        answer = DocQa().ask("what does latch inferred mean")
        assert answer.model == ""
        assert answer.grounded
        assert "[source:" not in answer.text

    def test_faithfulness_bounded_by_retrieval(self):
        ceiling = retrieval_accuracy(top_k=1)
        for model in ("gpt-4", "dave-gpt2"):
            score = answer_faithfulness(model, seed=0)
            assert 0.0 <= score <= ceiling

    def test_faithfulness_separates_model_strength(self):
        assert answer_faithfulness("gpt-4", seed=0) \
            > answer_faithfulness("dave-gpt2", seed=0)
