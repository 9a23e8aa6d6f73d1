"""The multi-step agent task suite: seeded scenarios scored pass@k.

Each :class:`TaskSpec` is a natural-language goal plus a machine-checkable
success predicate over the final :class:`~repro.tools.ToolContext`.  The
scenarios deliberately span sequences the agent's fixed Fig. 6 plan
(:class:`~repro.core.agent.ScriptedPolicy`) can and cannot express —
``alu_ppa_tune`` needs PPA-report → targeted-fix → re-report, a loop the
scripted plan never takes (it visits synthesis exactly once);
``gray_crosscheck`` and ``hls_malloc`` live entirely outside its steps.

``run_task_suite`` fans (task, seed) cells through the
:class:`~repro.exec.SweepScheduler` — journaled and resumable when a
campaign scope is active — and reports pass@k per task into the shape
``benchmarks/bench_agent.py`` serializes as ``BENCH_agent.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..exec import SweepScheduler
from ..tools import ToolContext

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..core.planner import PlannerRunReport
    from ..llm.model import SimulatedLLM
    from ..llm.client import LLMClient


# -- success predicates (module-level: shared by run-time finish gating
# -- and post-hoc scoring) ----------------------------------------------------

def check_verified(ctx: ToolContext) -> bool:
    return ctx.state.verified


def check_verified_spot_checked(ctx: ToolContext) -> bool:
    return ctx.state.verified \
        and ctx.state.stage_succeeded("fuzz_spot_check")


def check_crosschecked(ctx: ToolContext) -> bool:
    return ctx.state.stage_succeeded("crosscheck")


def check_ppa_tuned(ctx: ToolContext) -> bool:
    """The pipeline-inexpressible sequence: report, targeted fix, re-report.

    ``tune_synthesis`` records an attempt whether or not a script won, so
    the predicate is about the *loop* (measure → fix → re-measure), which
    the fixed pipeline cannot take — it visits synthesis exactly once.
    """
    history = ctx.state.history
    position = 0
    wanted = ("ppa_report", "tune_synthesis", "ppa_report")
    for record in history:
        if record.stage == wanted[position] \
                and (record.success or wanted[position] == "tune_synthesis"):
            position += 1
            if position == len(wanted):
                return True
    return False


def check_hls_repaired(ctx: ToolContext) -> bool:
    return ctx.state.schedule is not None \
        and ctx.state.stage_succeeded("hls_repair")


def check_linted_with_docs(ctx: ToolContext) -> bool:
    linted = any(r.stage == "lint_rtl" for r in ctx.state.history)
    return linted and bool(ctx.scratch.get("doc_citations"))


def check_verified_with_ppa(ctx: ToolContext) -> bool:
    return ctx.state.verified and ctx.state.ppa is not None


@dataclass(frozen=True)
class TaskSpec:
    """One seeded multi-step scenario for the planner agent."""

    task_id: str
    goal: str
    check: Callable[[ToolContext], bool]
    problem_id: str = ""          # repro.bench problem, when RTL-centric
    workload_id: str = ""         # repro.bench HLS repair workload
    description: str = ""
    pipeline_expressible: bool = True


TASKS: tuple[TaskSpec, ...] = (
    TaskSpec(
        task_id="adder_verify",
        goal="design the 8-bit adder and verify it against the testbench",
        check=check_verified, problem_id="c2_adder8",
        description="baseline generate-then-verify loop"),
    TaskSpec(
        task_id="mux_spot_check",
        goal="design and verify the mux, then run a random-vector "
             "sim-vs-synth equivalence spot check",
        check=check_verified_spot_checked, problem_id="c1_mux2",
        pipeline_expressible=False,
        description="verification plus a differential synthesis audit the "
                    "stage pipeline has no stage for"),
    TaskSpec(
        task_id="gray_crosscheck",
        goal="the C model and the RTL disagree: find why and repair the "
             "divergence",
        check=check_crosschecked, problem_id="c2_gray",
        pipeline_expressible=False,
        description="cross-level guided debugging (Section VI)"),
    TaskSpec(
        task_id="alu_ppa_tune",
        goal="synthesize the ALU, report PPA, fix the slowest path, and "
             "re-report the improvement",
        check=check_ppa_tuned, problem_id="c3_alu",
        pipeline_expressible=False,
        description="PPA-report -> targeted-fix -> re-report loop the "
                    "fixed pipeline cannot express"),
    TaskSpec(
        task_id="hls_malloc",
        goal="repair the C kernel so it passes HLS and report the "
             "schedule",
        check=check_hls_repaired, workload_id="malloc_sum",
        pipeline_expressible=False,
        description="HLS incompatibility repair from the software "
                    "modality"),
    TaskSpec(
        task_id="seqdet_lint_doc",
        goal="generate RTL for the sequence detector, lint it, and "
             "consult the documentation to explain any diagnostic",
        check=check_linted_with_docs, problem_id="c4_seqdet",
        pipeline_expressible=False,
        description="lint plus RAG documentation lookup"),
    TaskSpec(
        task_id="counter_verify_synth",
        goal="design, verify and synthesize the 4-bit counter, then "
             "report its area and delay",
        check=check_verified_with_ppa, problem_id="c2_counter",
        description="the full spec-to-QoR path, planned instead of fixed"),
)


def get_task(task_id: str) -> TaskSpec:
    for task in TASKS:
        if task.task_id == task_id:
            return task
    known = ", ".join(t.task_id for t in TASKS)
    raise KeyError(f"unknown task {task_id!r}; known tasks: {known}")


def run_task(task_id: str, model: str = "gpt-4o", seed: int = 0,
             max_steps: int | None = None, budget=None):
    """One planner run of one task; returns the PlannerRunReport."""
    from ..core.planner import PlannerAgent
    task = get_task(task_id)
    problem = None
    c_source = c_top = ""
    if task.problem_id:
        from ..bench.problems import get_problem
        problem = get_problem(task.problem_id)
    if task.workload_id:
        from ..bench.workloads import repair_workload
        workload = repair_workload(task.workload_id)
        c_source, c_top = workload.source, workload.top
    agent = PlannerAgent(model, seed=seed, max_steps=max_steps,
                         goal_check=task.check)
    report = agent.run(task.goal, problem, c_source=c_source, c_top=c_top,
                       budget=budget)
    return report


@dataclass
class TaskScore:
    """pass@k evidence for one task across its seed attempts."""

    task_id: str
    attempts: int
    passes: int
    tool_sequences: list[list[str]] = field(default_factory=list)
    pipeline_expressible: bool = True

    @property
    def pass_at_k(self) -> bool:
        return self.passes > 0

    @property
    def pass_rate(self) -> float:
        return self.passes / self.attempts if self.attempts else 0.0


@dataclass
class TaskSuiteResult:
    model: str
    k: int
    scores: list[TaskScore] = field(default_factory=list)

    @property
    def solved(self) -> int:
        return sum(s.pass_at_k for s in self.scores)

    def summary(self) -> str:
        rows = ", ".join(f"{s.task_id}:"
                         f"{'pass' if s.pass_at_k else 'FAIL'}"
                         f"({s.passes}/{s.attempts})"
                         for s in self.scores)
        return (f"task suite [{self.model}] k={self.k}: "
                f"{self.solved}/{len(self.scores)} solved | {rows}")


def planner_task_cell(payload: tuple) -> PlannerRunReport:
    """``(task_id, model, seed, max_steps) -> PlannerRunReport`` — one cell
    of a planner task-suite pass@k grid."""
    task_id, model, seed, max_steps = payload
    return run_task(task_id, model, seed=seed, max_steps=max_steps)


def run_task_suite(model: "str | SimulatedLLM | LLMClient" = "gpt-4o",
                   k: int = 3, task_ids: tuple[str, ...] = (), *,
                   seed: int = 0, max_steps: int | None = None, budget=None,
                   jobs: int | str | None = None) -> TaskSuiteResult:
    """pass@k over the suite through the :class:`SweepScheduler`.

    ``seed`` is the base of the attempt grid (attempt ``i`` of a task runs
    at ``seed + i``).  Cells are primitive ``(task_id, model, seed,
    max_steps)`` tuples, so the grid fans over a process pool and
    journals/resumes under an active campaign scope exactly like every
    other flow sweep; client instances (not picklable) run serially.
    """
    tasks = [get_task(t) for t in task_ids] if task_ids else list(TASKS)
    cells = [(task.task_id, model, seed + attempt, max_steps)
             for task in tasks for attempt in range(k)]
    if budget is None and isinstance(model, str):
        reports = SweepScheduler(jobs).map(planner_task_cell, cells)
    else:
        # Budget objects and client instances don't cross pools; serial.
        reports = [run_task(t, m, s, max_steps=ms, budget=budget)
                   for t, m, s, ms in cells]
    result = TaskSuiteResult(model=model, k=k)
    for index, task in enumerate(tasks):
        chunk = reports[index * k:(index + 1) * k]
        result.scores.append(TaskScore(
            task_id=task.task_id, attempts=len(chunk),
            passes=sum(bool(r.success) for r in chunk),
            tool_sequences=[r.tool_sequence for r in chunk],
            pipeline_expressible=task.pipeline_expressible))
    return result
