"""``repro.exec`` — parallel evaluation engine.

Fans independent, CPU-bound tool invocations (testbench scoring, stimulus
co-simulation, trojan detection) out over a ``concurrent.futures`` pool
with deterministic result ordering, per-task timeouts, and a ``jobs``
worker count (serial by default).  See :mod:`repro.exec.parallel`.
"""

from .parallel import (EvaluationTimeout, ParallelEvaluator, parallel_map,
                       resolve_jobs)
from .scheduler import SweepScheduler, sweep_map
from .tasks import (agent_run_task, assertion_quality_task,
                    autochip_budget_task, chipchat_task, detect_trojan_task,
                    evaluate_candidate_task, exercise_module_task,
                    guided_debug_task, hierarchical_task, planner_task_cell,
                    run_testbench_task, structured_flow_task,
                    testbench_quality_task, timed_out_testbench,
                    vrank_cell_task)

__all__ = [
    "EvaluationTimeout", "ParallelEvaluator", "SweepScheduler",
    "agent_run_task", "assertion_quality_task", "autochip_budget_task",
    "chipchat_task", "detect_trojan_task", "evaluate_candidate_task",
    "exercise_module_task", "guided_debug_task", "hierarchical_task",
    "parallel_map", "planner_task_cell", "resolve_jobs",
    "run_testbench_task", "structured_flow_task", "sweep_map",
    "testbench_quality_task", "timed_out_testbench", "vrank_cell_task",
]
