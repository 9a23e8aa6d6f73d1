"""The client seam: ``resolve_client`` and the ``LLMClient`` protocol."""

from repro.bench.harness import make_task
from repro.bench.problems import get_problem
from repro.llm.client import LLMClient, resolve_client
from repro.llm.model import SimulatedLLM


class TestClientSeam:
    def test_resolve_string_returns_simulated_llm(self):
        client = resolve_client("gpt-4", seed=7)
        assert isinstance(client, SimulatedLLM)
        assert client.seed == 7
        assert isinstance(client, LLMClient)   # structural conformance

    def test_resolve_instance_passthrough(self):
        llm = SimulatedLLM("gpt-4", seed=3)
        assert resolve_client(llm, seed=999) is llm

    def test_retired_serving_knobs_are_inert(self, monkeypatch):
        # Stale settings of the removed broker switches leave the client
        # a bare SimulatedLLM.
        for knob in ("SERVICE", "GEN_CONCURRENCY"):
            monkeypatch.setenv(f"REPRO_{knob}", "1")
        assert type(resolve_client("gpt-4")) is SimulatedLLM

    def test_derive_and_chat(self):
        client = resolve_client("gpt-4", seed=0)
        derived = client.derive(5)
        assert type(derived) is SimulatedLLM
        assert derived.seed == 5
        assert derived.profile is client.profile
        session = client.chat(system="hi")
        assert session.llm is client

    def test_generate_many_matches_one_at_a_time(self):
        task = make_task(get_problem("c2_absdiff"))
        direct = SimulatedLLM("chatgpt-3.5", seed=3)
        expected = [direct.generate(task, sample_index=i) for i in range(3)]
        batched = SimulatedLLM("chatgpt-3.5", seed=3)
        assert batched.generate_many(task, sample_indices=range(3)) \
            == expected
        assert batched.usage == direct.usage
