"""The four workloads as seeded streams of cells, plus result checks.

A *cell* is one top-level public call that the benchmark times.  Each
workload is an endless stream of rounds; round ``r`` of seed ``S`` runs
every cell kind of the workload at cell seed ``S * 10000 + r`` in an order
shuffled by ``(S, r)``, so any prefix of the stream holds the workload's
mix and a timed run of any length measures the same kind of work.  Every
round uses fresh seeds, so candidate sources stay distinct and the
compile caches fill the way a cold campaign fills them.

Each cell's result is reduced to a short canonical summary (the fields a
user reads: pass/fail, scores, counts) and hashed to a digest; the
benchmark compares digests against ``expected.json`` and checks
known-answer invariants on every seed.

An SLT cell also reports its *work*, the instructions the rig's core
retired, read from each measurement's ``CoreStats``.  The generated
program sets it (190k-375k instructions per cell) and the cell's time
follows it (r = 0.96), so ``run.py`` reads SLT times per unit of work.
The work is part of the cell's digest.
"""

from __future__ import annotations

import hashlib
import random
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, ContextManager, Iterator

from repro.bench import evaluate_model
from repro.bench.problems import all_problems
from repro.bench.workloads import REPAIR_WORKLOADS, TESTER_WORKLOADS
from repro.core.agent import run_agent_sweep
from repro.flows import (detection_sweep, insert_trojan, run_flow,
                         supports_crosscheck)
from repro.hls import HlsRepairEngine, HlsTester
from repro.llm import SimulatedLLM
from repro.llm.registry import AUTOCHIP_EVAL_MODELS
from repro.riscv import FpgaPowerMeter
from repro.slt import run_gp_slt, run_llm_slt
from repro.tasks import TASKS, run_task_suite

RTL_FLOWS = ("autochip", "structured", "vrank", "chipchat", "crosscheck",
             "hierarchical", "assertgen", "autobench")
HLS_MODEL = "gpt-4"           # the model of the paper's E2/E3 runs
TESTER_BUDGET = 200
# Rig hours per SLT cell: the pool's five handwritten seeds plus one
# generated snippet.  Longer loops give fewer cells per run, and the
# instruction count of a generated snippet varies ~2x, so longer cells
# make the run's total work depend on the seed.
SLT_HOURS = 0.07
# Exhaustive CEC over 16-17 inputs stops at the trigger value, so these
# cells take 0.04 s to 51 s by trojan seed; with them the run's work
# depends on the seed, not on the code.
CEC_HEAVY = ("c2_absdiff", "c2_adder8")
# When the simulated LLM writes an unfaithful C model of these problems,
# its one-operator flip ('+' in 'i++', '<' in '<<') yields C that does not
# parse and guided_debug raises CParseError.  The other crosscheck
# problems stay; problems without a C model would be empty cells.
CROSSCHECK_BROKEN = ("c1_parity", "c2_decoder", "c3_priority")
SLT_POWER_W = (4.0, 7.0)


@dataclass(frozen=True)
class Cell:
    index: int
    round_no: int
    kind: str
    key: str                       # the cell's type: kind and input, no seed
    label: str
    run: Callable[[], Any]
    expect_control: bool = False   # tester kernel with no width hazard
    work: Callable[[], int] | None = None   # instructions retired, once run


class CountingMeter(FpgaPowerMeter):
    """The rig's power meter, also counting the instructions the core
    retired over every measurement it made."""

    instret = 0

    def measure_program(self, program):
        measurement = super().measure_program(program)
        if measurement.stats is not None:
            self.instret += measurement.stats.instret
        return measurement


def _seed(seed: int, round_no: int) -> int:
    return seed * 10_000 + round_no


def _rounds(name: str, seed: int,
            build: Callable[[int, int], list]) -> Iterator[Cell]:
    index = 0
    round_no = 0
    while True:
        specs = build(seed, round_no)
        random.Random(f"{name}:{seed}:{round_no}").shuffle(specs)
        for spec in specs:
            yield Cell(index, round_no, *spec)
            index += 1
        round_no += 1


def _rtl_gen(seed: int, round_no: int) -> list:
    s = _seed(seed, round_no)
    specs = []
    models = AUTOCHIP_EVAL_MODELS
    pairs = [(flow, p) for p in all_problems()
             for flow in RTL_FLOWS + ("passk",) if flow != "crosscheck" or (
                 supports_crosscheck(p)
                 and p.problem_id not in CROSSCHECK_BROKEN)]
    for i, (flow, p) in enumerate(pairs):
        # Each cell type cycles through the four models, so every round
        # holds the same model mix.
        model = models[(round_no + i) % len(models)]
        key = f"{flow} {p.problem_id}"
        if flow == "passk":
            run = (lambda p=p, m=model: evaluate_model(
                m, [p], k=5, temperature=1.2, seed=s, jobs=1))
        else:
            run = (lambda f=flow, p=p, m=model: run_flow(
                f, [p], m, seed=s, jobs=1))
        specs.append((flow, key, f"{key} {model} s={s}", run))
    return specs


def _hls_flow(seed: int, round_no: int) -> list:
    s = _seed(seed, round_no)
    specs = []
    for w in REPAIR_WORKLOADS:
        for rag in (True, False):
            key = f"repair {w.workload_id} rag={rag}"
            specs.append((
                "repair", key, f"{key} s={s}",
                lambda w=w, rag=rag: HlsRepairEngine(
                    SimulatedLLM(HLS_MODEL, seed=s), use_rag=rag,
                    seed=s).repair(w.source, w.top)))
    for w in TESTER_WORKLOADS:
        key = f"tester {w.workload_id}"
        specs.append((
            "tester", key, f"{key} s={s}",
            lambda w=w: HlsTester(
                w.source, w.top, w.width_overrides,
                pipeline_hazard=w.pipeline_hazard,
                llm=SimulatedLLM(HLS_MODEL, seed=s),
                seed=s).run(budget=TESTER_BUDGET),
            not w.has_discrepancy))
    return specs


def _slt_power(seed: int, round_no: int) -> list:
    s = _seed(seed, round_no)

    def llm(cell_seed: int) -> tuple:
        # The meter run_llm_slt would make itself, counting.
        meter = CountingMeter(seed=cell_seed)
        return ("slt_llm", "slt_llm",
                f"run_llm_slt hours={SLT_HOURS} s={cell_seed}",
                lambda: run_llm_slt(hours=SLT_HOURS, seed=cell_seed,
                                    meter=meter),
                False, lambda: meter.instret)

    gp_meter = CountingMeter(seed=s + 1000)   # run_gp_slt's own choice
    # Two LLM loops per GP run: Fig. 5's loop is the subject, GP the
    # baseline, and the median cell is always an LLM loop.
    return [
        llm(s), llm(s + 5000),
        # realistic_only: unconstrained GP genomes run up to 1.5M
        # instructions (peak RSS 90-410 MB by seed), a heavy tail that
        # swamps the run.
        ("slt_gp", "slt_gp", f"run_gp_slt hours={SLT_HOURS} realistic s={s}",
         lambda: run_gp_slt(hours=SLT_HOURS, seed=s, realistic_only=True,
                            meter=gp_meter),
         False, lambda: gp_meter.instret),
    ]


def _trojan_signoff(seed: int, round_no: int) -> list:
    s = _seed(seed, round_no)
    specs = []
    for p in all_problems():
        if p.problem_id not in CEC_HEAVY \
                and insert_trojan(p, s) is not None:
            key = f"detect {p.problem_id}"
            specs.append(("detect", key, f"{key} t={s}",
                          lambda p=p: detection_sweep([p], seeds=(s,),
                                                      jobs=1)))
        key = f"agent {p.problem_id}"
        specs.append(("agent", key, f"{key} s={s}",
                      lambda p=p: run_agent_sweep([p], seeds=(s,), jobs=1)))
    for task in TASKS:
        key = f"task {task.task_id}"
        specs.append(("task", key, f"{key} s={s}",
                      lambda t=task.task_id: run_task_suite(
                          "gpt-4o", k=1, task_ids=(t,), seed=s, jobs=1)))
    return specs


WORKLOADS: dict[str, Callable[[int, int], list]] = {
    "rtl_gen": _rtl_gen,
    "hls_flow": _hls_flow,
    "slt_power": _slt_power,
    "trojan_signoff": _trojan_signoff,
}


def kinds(workload: str) -> set[str]:
    """The cell kinds of ``workload`` (every round holds each of them)."""
    return {spec[0] for spec in WORKLOADS[workload](0, 0)}


def stream(workload: str, seed: int) -> Iterator[Cell]:
    """The endless cell stream of ``workload`` for ``seed``."""
    return _rounds(workload, seed, WORKLOADS[workload])


def rounds_prefix(workload: str, seed: int, rounds: int) -> int:
    """Number of cells in the first ``rounds`` rounds."""
    return sum(len(WORKLOADS[workload](seed, r)) for r in range(rounds))


# -- canonical summaries -----------------------------------------------------

def _r(x: float) -> float:
    return round(x, 6)


def _passk(suite) -> tuple:
    return tuple((s.passed, _r(s.score))
                 for pe in suite.problems for s in pe.samples)


def _slt(r) -> tuple:
    return (r.snippets_generated, _r(r.best_power_w), r.compile_failures,
            r.stop_reason)


SUMMARIES: dict[str, Callable[[Any], tuple]] = {
    "autochip": lambda rs: tuple(
        (r.success, _r(r.best_score), r.rounds_used, r.generations,
         r.tool_evaluations, r.total_tokens) for r in rs),
    "structured": lambda sw: tuple(
        (r.success, r.own_tb_passed, r.coverage_gap, r.tool_iterations,
         r.human_interventions, r.generated_tb_checks) for r in sw.results),
    "vrank": lambda sw: tuple(
        (r.n_candidates, r.n_simulated, r.selected_index, r.selected_passed,
         r.first_passed, r.any_passed, tuple(c.size for c in r.clusters))
        for r in sw.results),
    "chipchat": lambda rep: tuple(
        (r.success, r.model_turns, r.human_turns, r.tool_runs)
        for r in rep.results),
    "crosscheck": lambda sw: tuple(
        (r.success, r.model_faithful, r.used_crosscheck, r.iterations)
        for r in sw.results),
    "hierarchical": lambda sw: tuple(
        (r.success, r.direct_success, r.submodule_calls, r.total_tokens)
        for r in sw.results),
    "assertgen": lambda sw: tuple(
        (_r(r.mutant_kill_rate), r.generated, r.valid, r.refined,
         r.refinement_rounds) for r in sw.results),
    "autobench": lambda sw: tuple(
        (r.self_corrected, r.false_reject, _r(r.mutant_kill_rate),
         _r(r.coverage_vs_golden), r.n_checks) for r in sw.results),
    "passk": _passk,
    "repair": lambda r: (
        r.success, r.equivalence is not None and r.equivalence.equivalent,
        r.rounds, len(r.issues_found), tuple(r.issues_fixed),
        tuple(r.issues_remaining), r.latent_missed,
        r.schedule_after.latency_cycles if r.schedule_after else None),
    "tester": lambda t: (
        t.candidates_generated, t.sims_run, t.sims_skipped,
        len(t.discrepancies), t.coverage, t.llm_guided_hits),
    "slt_llm": _slt,
    "slt_gp": _slt,
    "detect": lambda d: tuple(sorted((k, _r(v)) for k, v in d.items())),
    "agent": lambda sw: tuple(
        (r.success, r.reopens, r.total_tokens,
         tuple((h.stage, h.success) for h in r.state.history))
        for r in sw.reports),
    "task": lambda res: tuple(
        (s.task_id, s.passes, s.attempts,
         tuple(tuple(seq) for seq in s.tool_sequences))
        for s in res.scores),
}


def digest(summary: tuple) -> str:
    """Ten hex digits of SHA-256 over the summary's ``repr``: the summary
    holds only bools, ints, rounded floats and strings, so the digest is
    the same in every process."""
    return hashlib.sha256(repr(summary).encode()).hexdigest()[:10]


def check(cell: Cell, result: Any) -> list[str]:
    """Known-answer invariants that hold on every seed."""
    kind = cell.kind
    problems: list[str] = []
    if kind == "detect" and result.get("exhaustive_cec") != 1.0:
        problems.append(f"exhaustive CEC missed the trojan: {result}")
    elif kind == "repair" and result.success and not (
            result.equivalence is not None
            and result.equivalence.equivalent):
        problems.append("repair reported success without cosim proof")
    elif kind == "tester":
        if result.candidates_generated != TESTER_BUDGET:
            problems.append(f"tester ran {result.candidates_generated} "
                            f"candidates, budget {TESTER_BUDGET}")
        if result.sims_run + result.sims_skipped > TESTER_BUDGET:
            problems.append("tester accounted more sims than candidates")
        if cell.expect_control and result.discrepancies:
            problems.append("control kernel reported a discrepancy")
    elif kind in ("slt_llm", "slt_gp"):
        low, high = SLT_POWER_W
        if not low <= result.best_power_w <= high:
            problems.append(f"best power {result.best_power_w:.3f} W "
                            f"outside {low}-{high} W")
    elif kind == "passk":
        samples = [s for pe in result.problems for s in pe.samples]
        if len(samples) != 5 or not all(0.0 <= s.score <= 1.0
                                        for s in samples):
            problems.append("pass@k did not score 5 samples in [0, 1]")
    return problems


@dataclass
class Outcome:
    seconds: float
    digest: str
    problems: list[str]          # empty when the cell passed every check
    counts: dict[str, int]
    work: int | None = None      # instructions retired, for SLT cells


def execute(cell: Cell, expected: str | None,
            scope: Callable[[int], ContextManager] | None = None,
            clock: Callable[[], float] = time.perf_counter) -> Outcome:
    """Run one cell, timed by ``clock``, inside ``scope(cell.index)`` (the
    tracer's cell span); check its result against ``expected`` and the
    invariants."""
    start = clock()
    try:
        with scope(cell.index) if scope else nullcontext():
            result = cell.run()
    except Exception:  # a failing cell is counted; the run goes on
        return Outcome(clock() - start, "", [traceback.format_exc()], {})
    seconds = clock() - start
    work = cell.work() if cell.work else None
    summary = SUMMARIES[cell.kind](result) + (
        (work,) if work is not None else ())
    got = digest(summary)
    problems = check(cell, result)
    if expected is not None and expected != got:
        problems.append(f"digest {got} != expected {expected}; "
                        f"summary {summary!r}")
    return Outcome(seconds, got, problems, result_counts(cell.kind, result),
                   work)


def result_counts(kind: str, result: Any) -> dict[str, int]:
    """Layer counts that come from a cell's return value."""
    if kind == "tester":
        return {"hls.tester.skipped": result.sims_skipped,
                "hls.tester.sims": result.sims_run + result.sims_skipped}
    if kind == "repair":
        return {"hls.repair.cells": 1,
                "hls.repair.succeeded": int(result.success)}
    return {}
