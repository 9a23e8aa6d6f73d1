"""Typed tool registry: frozen signatures for every EDA capability.

The ChatEDA shape (PAPERS.md) needs one catalogue of *tools* — compile,
simulate, lint, synthesize, report PPA, repair, look up documentation —
with signatures a planner can reason about and a kernel can validate
against.  :class:`ToolSpec` is that signature: name, argument schema,
result schema, cost hints and a documentation string that doubles as the
tool's RAG passage.  It generalizes :class:`repro.flows.registry.FlowSpec`
from "how to launch a whole flow" down to "one invocable capability".

Purity contract: a tool reads the :class:`ToolContext` (problem, client,
seed, design state) and its validated arguments, and returns a
:class:`ToolOutcome`; any model call inside a tool goes through the
context's resolved :class:`~repro.llm.client.LLMClient`, so a tool's result
is a pure function of ``(context coordinates, args)`` — planned order can
change *which* tools run, never what any individual call returns
(DESIGN.md §13).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..obs import get_metrics, get_tracer


class ToolError(Exception):
    """A tool invocation that could not be validated or executed."""


@dataclass(frozen=True)
class ToolArg:
    """One argument in a tool's typed signature."""

    name: str
    type: type
    doc: str = ""
    required: bool = False
    default: Any = None

    def check(self, value: Any) -> str | None:
        """Type-check one supplied value; returns an error string or None."""
        if value is None:
            return f"argument '{self.name}' is None" if self.required else None
        if self.type is float and isinstance(value, int):
            return None  # ints are acceptable floats everywhere in the repo
        if not isinstance(value, self.type):
            return (f"argument '{self.name}' expects "
                    f"{self.type.__name__}, got {type(value).__name__}")
        return None


@dataclass(frozen=True)
class ToolCost:
    """Static cost hints the planner weighs before invoking a tool.

    ``model_calls`` marks tools that spend LLM tokens; ``est_evals`` is a
    rough count of EDA-tool evaluations one invocation performs.  Hints
    are advisory — the :class:`~repro.engine.Budget` enforces the real
    limits from the run record's counters.
    """

    model_calls: bool = False
    est_evals: int = 1
    est_tokens: int = 0


@dataclass
class ToolContext:
    """Everything a tool may read: the run's coordinates and design state.

    Mutable by design — tools enrich ``state`` (the same multi-modal
    :class:`~repro.core.state.DesignState` the agent's steps write) and
    stash planner-visible facts in ``scratch``.
    """

    llm: Any                      # resolved LLMClient
    seed: int = 0
    problem: Any = None           # repro.bench.problems.Problem | None
    state: Any = None             # repro.core.state.DesignState
    c_source: str = ""            # HLS modality input (repair workloads)
    c_top: str = ""
    scratch: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ToolOutcome:
    """What one tool invocation reports back to the planner.

    ``observation`` is the text folded into the plan/act/observe
    transcript; ``artifacts`` carries structured results (plain picklable
    values) the task checkers and the planner scratchpad read.
    """

    ok: bool
    observation: str
    artifacts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ToolSpec:
    """One registered tool: typed signature plus the implementation."""

    name: str
    summary: str
    doc: str                      # retrieval passage (RAG grounding)
    fn: Callable[[ToolContext, dict], ToolOutcome]
    args: tuple[ToolArg, ...] = ()
    returns: tuple[str, ...] = ()            # artifact keys the tool emits
    requires: tuple[str, ...] = ()           # state modalities needed
    cost: ToolCost = ToolCost()
    accepts_budget: bool = False  # threads ctx budget into a nested kernel

    def validate(self, args: dict) -> list[str]:
        """All schema violations for one proposed invocation (empty = ok)."""
        errors = []
        known = {a.name: a for a in self.args}
        for name in sorted(args):
            if name not in known:
                errors.append(f"unknown argument '{name}' "
                              f"(accepts: {sorted(known) or 'none'})")
        for arg in self.args:
            if arg.required and name_missing(args, arg.name):
                errors.append(f"missing required argument '{arg.name}'")
            elif arg.name in args:
                problem = arg.check(args[arg.name])
                if problem:
                    errors.append(problem)
        return errors

    def missing_state(self, ctx: ToolContext) -> list[str]:
        """Which required modalities the context does not have yet."""
        present = set(ctx.state.modalities_present()) if ctx.state else set()
        if ctx.c_source:
            present.add("software")
        return [m for m in self.requires if m not in present]

    def bound_args(self, args: dict) -> dict:
        """The supplied args over the schema defaults."""
        bound = {a.name: a.default for a in self.args if a.default is not None}
        bound.update(args)
        return bound

    def invoke(self, ctx: ToolContext, args: dict | None = None) -> ToolOutcome:
        """Validate and run the tool; schema violations raise ToolError."""
        args = dict(args or {})
        errors = self.validate(args)
        if errors:
            raise ToolError(f"{self.name}: " + "; ".join(errors))
        missing = self.missing_state(ctx)
        if missing:
            raise ToolError(
                f"{self.name}: requires {', '.join(missing)} — produce "
                f"that modality first (state has: "
                f"{', '.join(ctx.state.modalities_present()) if ctx.state else 'nothing'})")
        metrics = get_metrics()
        with get_tracer().span(f"tool.{self.name}") as sp:
            outcome = self.fn(ctx, self.bound_args(args))
            sp.set(ok=outcome.ok)
        metrics.counter("tool.calls").add()
        metrics.counter(f"tool.{self.name}.calls").add()
        if not outcome.ok:
            metrics.counter("tool.failures").add()
        return outcome


def name_missing(args: dict, name: str) -> bool:
    return name not in args or args[name] is None


_REGISTRY: dict[str, ToolSpec] = {}


def register_tool(spec: ToolSpec) -> ToolSpec:
    if spec.name in _REGISTRY:
        raise ValueError(f"duplicate tool '{spec.name}'")
    _REGISTRY[spec.name] = spec
    return spec


def get_tool(name: str) -> ToolSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown tool {name!r}; known tools: {known}") from None


def list_tools() -> list[ToolSpec]:
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]
