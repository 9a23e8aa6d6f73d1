"""The unified client seam: ``LLMClient`` protocol + broker-backed client.

Every flow used to construct and hold a bare :class:`SimulatedLLM`; this
module defines the interface flows actually depend on and one resolver
that decides — in exactly one place — whether a run talks to the model
directly or through the :class:`~repro.service.broker.ModelBroker`:

* :class:`LLMClient` — the structural protocol (``generate`` / ``refine``
  / ``apply_human_fix`` / ``chat`` / ``derive`` plus ``profile`` and
  ``usage``).  :class:`SimulatedLLM` satisfies it directly.
* :class:`ServiceClient` — satisfies the same protocol by submitting every
  model call to a broker lane and blocking on the future.  Because a
  backend call is a pure function of its arguments, broker-mediated runs
  are byte-identical to direct runs.
* :func:`resolve_client` — the one switch: strings become seeded
  ``SimulatedLLM``s, and ``REPRO_SERVICE=1`` (or ``service=True``) wraps
  the backend in a ``ServiceClient``.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from ..config import get_settings
from ..llm.chat import ChatSession
from ..llm.model import Generation, GenerationTask, SimulatedLLM, UsageStats
from ..llm.profiles import ModelProfile
from ..llm.prompts import Prompt
from .broker import ModelBroker, get_default_broker


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

    def refine_many(self, task: GenerationTask, previous: Generation,
                    feedback: str, temperature: float = 0.7, *,
                    sample_indices=(0,)) -> list[Generation]: ...

    def chat(self, system: str = "") -> ChatSession: ...

    def derive(self, seed: int) -> "LLMClient": ...


class ServiceClient:
    """An :class:`LLMClient` that routes every call through the broker.

    The wrapped backend (a :class:`SimulatedLLM` or a chaos wrapper around
    one) still owns the model profile, the seed and the usage ledger; the
    broker owns scheduling, retries and the circuit breaker.  Each request
    carries a stable key derived from its arguments so broker-side jitter
    never depends on arrival order.
    """

    def __init__(self, backend, broker: ModelBroker | None = None,
                 timeout: float | None = None):
        self.backend = backend
        self.broker = broker if broker is not None else get_default_broker()
        self.timeout = timeout

    # -- passthrough identity -------------------------------------------------

    @property
    def profile(self) -> ModelProfile:
        return self.backend.profile

    @property
    def usage(self) -> UsageStats:
        return self.backend.usage

    @property
    def seed(self) -> int:
        return self.backend.seed

    def derive(self, seed: int) -> "ServiceClient":
        return ServiceClient(self.backend.derive(seed), self.broker,
                             self.timeout)

    def chat(self, system: str = "") -> ChatSession:
        # The session calls back into *this* client, so conversational
        # turns also ride the broker.
        return ChatSession(self, system=system)

    # -- brokered model calls -------------------------------------------------

    def _key(self, *parts: object) -> int:
        from ..llm.model import _stable_seed
        return _stable_seed(self.backend.seed, self.profile.name, *parts)

    def submit_generate(self, task: GenerationTask,
                        prompt: Prompt | None = None,
                        temperature: float = 0.7, sample_index: int = 0):
        """Enqueue a generation on its lane without blocking.

        Returns the lane future.  This is the seam
        :class:`~repro.engine.GenerationBatch` uses to put a whole round of
        candidates in flight at once, which is what lets the lane's linger
        window close over a real micro-batch instead of a single request.
        """
        key = self._key("generate", task.task_id, round(temperature, 3),
                        sample_index)
        return self.broker.submit(self.backend, "generate",
                                  (task, prompt, temperature, sample_index),
                                  key=key, timeout=self.timeout)

    def submit_refine(self, task: GenerationTask, previous: Generation,
                      feedback: str, temperature: float = 0.7,
                      sample_index: int = 0):
        key = self._key("refine", task.task_id, previous.style_seed,
                        sample_index, feedback)
        return self.broker.submit(
            self.backend, "refine",
            (task, previous, feedback, temperature, sample_index),
            key=key, timeout=self.timeout)

    def submit_human_fix(self, task: GenerationTask, previous: Generation):
        key = self._key("human_fix", task.task_id, previous.style_seed)
        return self.broker.submit(self.backend, "apply_human_fix",
                                  (task, previous), key=key,
                                  timeout=self.timeout)

    def _wait(self, future) -> Generation:
        # The lane enforces the queue deadline; the margin here only guards
        # against a wedged worker (mirrors ModelBroker.call).
        wait = None if self.timeout is None else self.timeout * 2 + 1.0
        return future.result(timeout=wait)

    def generate(self, task: GenerationTask, prompt: Prompt | None = None,
                 temperature: float = 0.7,
                 sample_index: int = 0) -> Generation:
        return self._wait(self.submit_generate(task, prompt, temperature,
                                               sample_index))

    def refine(self, task: GenerationTask, previous: Generation,
               feedback: str, temperature: float = 0.7,
               sample_index: int = 0) -> Generation:
        return self._wait(self.submit_refine(task, previous, feedback,
                                             temperature, sample_index))

    def apply_human_fix(self, task: GenerationTask,
                        previous: Generation) -> Generation:
        return self._wait(self.submit_human_fix(task, previous))

    # -- batched entry points -------------------------------------------------

    def generate_many(self, task: GenerationTask,
                      prompt: Prompt | None = None,
                      temperature: float = 0.7, *,
                      sample_indices=(0,)) -> list[Generation]:
        """``k`` candidates submitted concurrently (windowed by
        ``REPRO_GEN_CONCURRENCY``) so the lane coalesces micro-batches;
        results come back in ``sample_indices`` order."""
        from ..engine.generate import GenerationBatch
        batch = GenerationBatch(self)
        for i in sample_indices:
            batch.generate(task, prompt, temperature, sample_index=i)
        return batch.gather()

    def refine_many(self, task: GenerationTask, previous: Generation,
                    feedback: str, temperature: float = 0.7, *,
                    sample_indices=(0,)) -> list[Generation]:
        from ..engine.generate import GenerationBatch
        batch = GenerationBatch(self)
        for i in sample_indices:
            batch.refine(task, previous, feedback, temperature,
                         sample_index=i)
        return batch.gather()


def resolve_client(model: "str | SimulatedLLM | LLMClient", *,
                   seed: int = 0, service: bool | None = None,
                   broker: ModelBroker | None = None) -> LLMClient:
    """Resolve a flow's ``model`` argument to a ready client.

    * a string becomes ``SimulatedLLM(model, seed=seed)``;
    * an existing client instance is passed through unchanged (its own
      seed wins — pass ``model.derive(seed)`` to reseed);
    * when ``service`` is true — or unset and ``REPRO_SERVICE=1`` — the
      backend is wrapped in a :class:`ServiceClient` on ``broker`` (the
      process-wide default when unset).  A client that is already
      broker-backed is never double-wrapped.
    """
    client = SimulatedLLM(model, seed=seed) if isinstance(model, str) \
        else model
    if service is None:
        service = get_settings().service_enabled
    if service and not isinstance(client, ServiceClient):
        return ServiceClient(client, broker=broker)
    return client
