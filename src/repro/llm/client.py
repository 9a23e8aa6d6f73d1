"""The client seam: the ``LLMClient`` protocol and its one resolver.

Flows, the agent and the planner depend on this interface rather than on
:class:`~repro.llm.model.SimulatedLLM` itself (ChatEDA-style uniform model
interface):

* :class:`LLMClient` — the structural protocol (``generate`` / ``refine``
  / ``apply_human_fix`` / ``generate_many`` / ``chat`` / ``derive`` plus
  ``profile`` and ``usage``).  :class:`SimulatedLLM` satisfies it
  directly.
* :func:`resolve_client` — turns a flow's ``model`` argument into a
  client: a profile name becomes a seeded ``SimulatedLLM``, a client
  instance passes through unchanged.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from .chat import ChatSession
from .model import Generation, GenerationTask, SimulatedLLM, UsageStats
from .profiles import ModelProfile
from .prompts import Prompt


@runtime_checkable
class LLMClient(Protocol):
    """What flows need from a model client (structural, not nominal)."""

    @property
    def profile(self) -> ModelProfile: ...

    @property
    def usage(self) -> UsageStats: ...

    def generate(self, task: GenerationTask, prompt: Prompt | None = None,
                 temperature: float = 0.7,
                 sample_index: int = 0) -> Generation: ...

    def refine(self, task: GenerationTask, previous: Generation,
               feedback: str, temperature: float = 0.7,
               sample_index: int = 0) -> Generation: ...

    def apply_human_fix(self, task: GenerationTask,
                        previous: Generation) -> Generation: ...

    def generate_many(self, task: GenerationTask,
                      prompt: Prompt | None = None,
                      temperature: float = 0.7, *,
                      sample_indices=(0,)) -> list[Generation]: ...

    def chat(self, system: str = "") -> ChatSession: ...

    def derive(self, seed: int) -> "LLMClient": ...


def resolve_client(model: "str | LLMClient", *, seed: int = 0) -> LLMClient:
    """Resolve a flow's ``model`` argument to a ready client.

    A string becomes ``SimulatedLLM(model, seed=seed)``; a client instance
    is passed through unchanged (its own seed wins — pass
    ``model.derive(seed)`` to reseed).
    """
    return SimulatedLLM(model, seed=seed) if isinstance(model, str) \
        else model
