"""Picklable task functions for the process-pool evaluators.

Process pools require module-level callables; these wrap the repo's pure
scoring primitives so flows can fan them out.  Imports happen inside the
functions to keep ``repro.exec`` free of import cycles (``repro.bench``
imports this package).
"""

from __future__ import annotations

from typing import Any


def evaluate_candidate_task(payload: tuple) -> Any:
    """``(problem, candidate_source, max_time) -> TestbenchResult``."""
    problem, source, max_time = payload
    from ..bench.harness import evaluate_candidate
    return evaluate_candidate(problem, source, max_time=max_time)


def run_testbench_task(payload: tuple) -> Any:
    """``(source, top, max_time, seed, tb_source) -> TestbenchResult``."""
    source, top, max_time, seed, tb_source = payload
    from ..hdl.testbench import run_testbench
    return run_testbench(source, top, max_time=max_time, seed=seed,
                         tb_source=tb_source)


def exercise_module_task(payload: tuple) -> Any:
    """``(source, top, vectors, clk, reset) -> signatures | None``."""
    source, top, vectors, clk, reset = payload
    from ..hdl.testbench import exercise_module
    return exercise_module(source, top, vectors, clk=clk, reset=reset)


def timed_out_testbench(_payload: tuple) -> Any:
    """Timeout placeholder scored as a broken candidate."""
    from ..hdl.testbench import TestbenchResult
    return TestbenchResult(compiled=True,
                           runtime_error="evaluation timed out")


def guided_debug_task(payload: tuple) -> Any:
    """``(problem, model, use_crosscheck, max_iterations, temperature,
    seed) -> GuidedDebugResult`` — one cell of a guided-debugging sweep."""
    problem, model, use_crosscheck, max_iterations, temperature, seed = payload
    from ..flows.crosscheck import guided_debug
    from ..llm.client import resolve_client
    llm = resolve_client(model, seed=seed)
    return guided_debug(problem, llm, use_crosscheck=use_crosscheck,
                        max_iterations=max_iterations,
                        temperature=temperature, seed=seed)


def autochip_budget_task(payload: tuple) -> Any:
    """``(problem, model, k, depth, temperature, seed) -> AutoChipResult`` —
    one cell of a ``compare_budgets`` grid (fresh client per cell: a
    ``SimulatedLLM`` generation depends only on its key, and result token
    counts are per-run deltas, so per-cell clients match the shared-client
    serial loop)."""
    problem, model, k, depth, temperature, seed = payload
    from ..flows.autochip import run_autochip
    return run_autochip(problem, model, k=k, depth=depth,
                        temperature=temperature, seed=seed)


def vrank_cell_task(payload: tuple) -> Any:
    """``(problem, model, n_candidates, temperature, seed) -> VRankResult``
    — one cell of a VRank sweep."""
    problem, model, n_candidates, temperature, seed = payload
    from ..flows.vrank import vrank
    return vrank(problem, model, n_candidates, temperature=temperature,
                 seed=seed)


def agent_run_task(payload: tuple) -> Any:
    """``(problem, model, enable_feedback, seed) -> AgentRunReport`` — one
    cell of an agent sweep."""
    problem, model, enable_feedback, seed = payload
    from ..core.agent import AgentConfig, EdaAgent
    agent = EdaAgent(AgentConfig(model=model,
                                 enable_feedback=enable_feedback),
                     seed=seed)
    return agent.run(problem)


def planner_task_cell(payload: tuple) -> Any:
    """``(task_id, model, seed, max_steps) -> PlannerRunReport`` — one cell
    of a planner task-suite pass@k grid."""
    task_id, model, seed, max_steps = payload
    from ..tasks import run_task
    return run_task(task_id, model, seed=seed, max_steps=max_steps)


def structured_flow_task(payload: tuple) -> Any:
    """``(problem, model, seed) -> StructuredFlowResult`` — one cell of a
    structured-feedback sweep."""
    problem, model, seed = payload
    from ..flows.structured import StructuredFeedbackFlow
    from ..llm.client import resolve_client
    flow = StructuredFeedbackFlow(resolve_client(model, seed=seed))
    return flow.run(problem, seed=seed)


def chipchat_task(payload: tuple) -> Any:
    """``(problem, model, seed) -> ChipChatResult`` — one Chip-Chat block."""
    problem, model, seed = payload
    from ..flows.chipchat import ChipChatSession
    from ..llm.client import resolve_client
    return ChipChatSession(resolve_client(model, seed=seed)).run(problem)


def hierarchical_task(payload: tuple) -> Any:
    """``(problem, model, seed) -> HierarchicalResult`` — one cell of a
    hierarchical-vs-direct sweep."""
    problem, model, seed = payload
    from ..flows.hierarchical import run_hierarchical
    return run_hierarchical(problem, model, seed=seed)


def assertion_quality_task(payload: tuple) -> Any:
    """``(problem, model, seed) -> AssertionReport`` — one assertion-quality
    cell."""
    problem, model, seed = payload
    from ..flows.assertgen import assertion_quality
    return assertion_quality(problem, model, seed=seed)


def testbench_quality_task(payload: tuple) -> Any:
    """``(problem, model, self_correct, seed) -> TbQualityReport`` — one
    generated-testbench quality cell."""
    problem, model, self_correct, seed = payload
    from ..flows.autobench import testbench_quality
    return testbench_quality(problem, model, seed=seed,
                             self_correct=self_correct)


def detect_trojan_task(payload: tuple) -> Any:
    """``(problem, seed, cosim_vectors) -> dict[str, bool] | None``.

    Runs the full detector hierarchy for one compromised design; ``None``
    when the trojan insertion pattern does not apply to the problem.
    """
    problem, seed, cosim_vectors = payload
    from ..config import get_settings
    from ..flows.security import (detect_with_cec, detect_with_critic,
                                  detect_with_random_cosim,
                                  detect_with_testbench, insert_trojan)
    design = insert_trojan(problem, seed=seed)
    if design is None:
        return None
    cell = {
        "testbench": detect_with_testbench(problem, design).detected,
        "random_cosim": detect_with_random_cosim(
            problem, design, vectors=cosim_vectors, seed=seed).detected,
        "exhaustive_cec": detect_with_cec(problem, design).detected,
    }
    # Workers inherit REPRO_CRITIC (fork), so the gate matches the parent:
    # the default-config cell dict stays golden-identical.
    if get_settings().critic_enabled:
        cell["critic"] = detect_with_critic(problem, design).detected
    return cell
