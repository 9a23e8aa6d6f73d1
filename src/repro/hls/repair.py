"""The LLM-aided HLS program-repair framework of Fig. 2.

Four stages, exactly as the paper lays them out:

1. **Preprocessing** — compile with the (simulated) HLS tool; it reports a
   subset of the incompatibilities.  The LLM scans for *latent* issues the
   compiler misses; its hit rate depends on the capability profile.
2. **Repair with RAG** — for each detected issue, retrieve a correction
   template from the external library and apply it.  Without RAG, the model
   picks templates from parametric memory and often picks wrong.
3. **Equivalence verification** — interpreter-vs-interpreter check on random
   vectors (plus C-to-RTL co-simulation when the kernel is synthesizable).
4. **PPA optimization** — the LLM adjusts loop pragmas on the hottest loops
   and keeps configurations that improve estimated latency.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..engine import Budget, LoopKernel, RoundState, RunRecord
from ..llm.model import SimulatedLLM, _stable_seed
from ..llm.rag import VectorIndex, build_template_index
from ..obs import get_tracer
from .cast import CProgram
from .compat import CompatReport, HlsIssue, check_compatibility
from .cosim import (CosimMismatch, CosimReport, c_rtl_cosim, copy_args,
                    cpu_fpga_cosim, _random_args)
from .cparser import CParseError, cparse
from .cprinter import program_str
from .interp import CRuntimeError, Machine
from .pragmas import find_loops, set_loop_pragmas
from .schedule import ScheduleReport, estimate_schedule
from .transforms import TEMPLATES, RepairTemplate, templates_for


@dataclass
class StageLog:
    stage: str
    detail: str


@dataclass
class RepairResult:
    success: bool
    original_source: str
    repaired_source: str
    issues_found: list[HlsIssue] = field(default_factory=list)
    issues_fixed: list[str] = field(default_factory=list)
    issues_remaining: list[str] = field(default_factory=list)
    latent_missed: int = 0
    equivalence: CosimReport | None = None
    schedule_before: ScheduleReport | None = None
    schedule_after: ScheduleReport | None = None
    log: list[StageLog] = field(default_factory=list)
    rounds: int = 0

    @property
    def latency_improvement(self) -> float:
        if not self.schedule_before or not self.schedule_after:
            return 0.0
        before = self.schedule_before.latency_cycles
        after = self.schedule_after.latency_cycles
        if before <= 0:
            return 0.0
        return (before - after) / before

    def report(self) -> str:
        lines = [f"repair {'SUCCEEDED' if self.success else 'FAILED'} "
                 f"after {self.rounds} round(s)"]
        lines.append(f"  issues: {len(self.issues_found)} found, "
                     f"{len(self.issues_fixed)} fixed, "
                     f"{len(self.issues_remaining)} remaining, "
                     f"{self.latent_missed} latent missed")
        if self.equivalence is not None:
            lines.append(f"  {self.equivalence.summary()}")
        if self.schedule_before and self.schedule_after:
            lines.append(
                f"  latency: {self.schedule_before.latency_cycles} -> "
                f"{self.schedule_after.latency_cycles} cycles "
                f"({self.latency_improvement:+.0%})")
        return "\n".join(lines)


# Pragma configurations the optimizer tries on the hottest loop.
_PRAGMA_MOVES: tuple[tuple[str, ...], ...] = (
    ("#pragma HLS pipeline II=1",),
    ("#pragma HLS pipeline II=2",),
    ("#pragma HLS unroll factor=2",),
    ("#pragma HLS unroll factor=4",),
    ("#pragma HLS pipeline II=1", "#pragma HLS unroll factor=2"),
)


class HlsRepairEngine:
    """Drives the four-stage repair loop for one kernel."""

    def __init__(self, llm: SimulatedLLM, use_rag: bool = True,
                 max_rounds: int = 3, seed: int = 0,
                 optimize_ppa: bool = True):
        self.llm = llm
        self.use_rag = use_rag
        self.max_rounds = max_rounds
        self.seed = seed
        self.optimize_ppa = optimize_ppa
        self.template_index: VectorIndex = build_template_index(TEMPLATES)

    # -- stage 1: preprocessing ------------------------------------------------

    def _detect_issues(self, report: CompatReport,
                       rng: random.Random) -> tuple[list[HlsIssue], int]:
        """Tool-visible issues plus LLM-detected latent issues."""
        detected = list(report.tool_visible)
        missed = 0
        detect_p = (0.35 + 0.55 * self.llm.profile.semantic_reliability
                    * self.llm.profile.c_strength)
        for issue in report.latent:
            if rng.random() < detect_p:
                detected.append(issue)
            else:
                missed += 1
        return detected, missed

    # -- stage 2: template selection -----------------------------------------------

    def _choose_template(self, issue: HlsIssue,
                         rng: random.Random) -> RepairTemplate | None:
        correct = templates_for(issue.code)
        if self.use_rag:
            hits = self.template_index.query(
                f"{issue.code} {issue.message}", top_k=1)
            if hits and rng.random() < 0.95:
                template = hits[0].document.payload
                assert isinstance(template, RepairTemplate)
                return template
            return correct[0] if correct else None
        # Parametric memory: often grabs a plausible-but-wrong template.
        p_correct = 0.30 + 0.45 * self.llm.profile.c_strength
        if correct and rng.random() < p_correct:
            return correct[0]
        return rng.choice(TEMPLATES)

    # -- main entry ---------------------------------------------------------------------

    def repair(self, source: str, top: str, clock_ns: float = 10.0,
               budget: Budget | None = None) -> RepairResult:
        tracer = get_tracer()
        with tracer.span("hls.repair", top=top,
                         model=self.llm.profile.name,
                         use_rag=self.use_rag) as repair_span:
            result = self._repair_impl(source, top, clock_ns, tracer, budget)
            repair_span.set(success=result.success, rounds=result.rounds,
                            issues_found=len(result.issues_found),
                            issues_fixed=len(result.issues_fixed))
        return result

    def _repair_impl(self, source: str, top: str, clock_ns: float,
                     tracer, budget: Budget | None = None) -> RepairResult:
        rng = random.Random(_stable_seed(self.seed, self.llm.profile.name,
                                         top, len(source), self.use_rag))
        result = RepairResult(success=False, original_source=source,
                              repaired_source=source)
        record = RunRecord(flow="hls.repair", problem_id=top,
                           model=self.llm.profile.name)
        result.run_record = record
        try:
            program = cparse(source)
        except CParseError as exc:
            result.log.append(StageLog("preprocess", f"parse failed: {exc}"))
            return result

        original_program = program
        fixed_ids: list[str] = []
        # The repair rounds run on the LoopKernel with ``span_name=None``:
        # the ``hls.repair.round`` span below keeps its round_no creation
        # attribute and stays a direct child of ``hls.repair``.
        st = {"program": program}

        def step(state: RoundState, _sp) -> str | None:
            round_no = state.round_no
            result.rounds = round_no
            with tracer.span("hls.repair.round", round_no=round_no) as sp:
                report = check_compatibility(st["program"], top)
                record.tool_evaluations += 1
                result.log.append(StageLog(
                    "preprocess", f"round {round_no}: {report.error_log()}"))
                detected, missed = self._detect_issues(report, rng)
                if round_no == 1:
                    result.issues_found = list(detected)
                    result.latent_missed = missed
                sp.set(issues=len(report.issues), detected=len(detected),
                       latent_missed=missed)
                if not report.issues:
                    return "clean"
                if not detected:
                    result.log.append(StageLog(
                        "repair",
                        "issues remain but none detected this round"))
                    return "undetected"
                progress = False
                fixed_this_round = 0
                for issue in detected:
                    template = self._choose_template(issue, rng)
                    if template is None:
                        result.log.append(StageLog(
                            "repair", f"no template for {issue.code}"))
                        continue
                    # Application success depends on model capability.
                    apply_p = 0.55 \
                        + 0.4 * self.llm.profile.semantic_reliability
                    if rng.random() > apply_p:
                        result.log.append(StageLog(
                            "repair", f"{template.template_id}: model "
                                      f"application failed for {issue.code}"))
                        continue
                    record.generations += 1
                    outcome = template.apply(st["program"], issue)
                    if outcome.applied:
                        st["program"] = outcome.program
                        progress = True
                        fixed_this_round += 1
                        fixed_ids.append(
                            f"{issue.code}:{template.template_id}")
                        result.log.append(StageLog(
                            "repair",
                            f"{template.template_id}: {outcome.note}"))
                    else:
                        result.log.append(StageLog(
                            "repair", f"{template.template_id}: not "
                                      f"applicable ({outcome.note})"))
                sp.set(fixed=fixed_this_round)
                if not progress:
                    return "no-progress"
            return None

        LoopKernel(step=step, record=record, budget=budget,
                   max_rounds=self.max_rounds, span_name=None).run()
        program = st["program"]

        final_report = check_compatibility(program, top)
        result.issues_fixed = fixed_ids
        result.issues_remaining = [str(i) for i in final_report.issues]
        result.repaired_source = program_str(program)

        # Stage 3: equivalence verification.
        with tracer.span("hls.verify") as sp:
            result.equivalence = self._verify_equivalence(
                original_program, program, top, rng)
            sp.set(equivalent=result.equivalence.equivalent,
                   vectors=result.equivalence.vectors_run)
        result.log.append(StageLog("verify", result.equivalence.summary()))

        compatible = final_report.compatible
        equivalent = result.equivalence.equivalent \
            or bool(result.equivalence.skipped_reason)
        result.success = compatible and equivalent

        # Stage 4: PPA optimization (only for successfully repaired kernels).
        if result.success and self.optimize_ppa:
            with tracer.span("hls.ppa") as sp:
                program, before, after = self._optimize_ppa(
                    program, top, clock_ns, rng, result)
                sp.set(latency_before=before.latency_cycles,
                       latency_after=after.latency_cycles)
            result.schedule_before = before
            result.schedule_after = after
            result.repaired_source = program_str(program)
        return result

    # -- stage 3 ------------------------------------------------------------------------------

    def _verify_equivalence(self, original: CProgram, repaired: CProgram,
                            top: str, rng: random.Random) -> CosimReport:
        report = CosimReport()
        if top not in original.functions or top not in repaired.functions:
            report.skipped_reason = "kernel function missing"
            return report
        func = original.functions[top]
        # Stimulus must satisfy both signatures: the repair may have bound
        # pointer parameters to explicit array sizes, so size arrays to the
        # larger of the two declarations.
        repaired_func = repaired.functions[top]
        import dataclasses as _dc
        merged_params = []
        for old_p, new_p in zip(func.params, repaired_func.params):
            old_size = old_p.ctype.array_size or 0
            new_size = new_p.ctype.array_size or 0
            size = max(old_size, new_size)
            if size > 0:
                merged_params.append(_dc.replace(
                    old_p, ctype=_dc.replace(old_p.ctype, array_size=size,
                                             is_pointer=False)))
            else:
                merged_params.append(old_p)
        sized_func = _dc.replace(func, params=tuple(merged_params))
        cpu_old = Machine(original, mode="cpu")
        cpu_new = Machine(repaired, mode="cpu")
        for _ in range(24):
            args = _random_args(sized_func, rng)
            try:
                expected = cpu_old.call(top, *copy_args(args)).value
            except CRuntimeError:
                report.runtime_errors += 1
                continue
            try:
                actual = cpu_new.call(top, *copy_args(args)).value
            except CRuntimeError as exc:
                report.vectors_run += 1
                report.mismatches.append(CosimMismatch(
                    inputs={}, expected=expected, actual=None,
                    note=f"repaired kernel error: {exc.kind}"))
                continue
            report.vectors_run += 1
            if expected != actual:
                report.mismatches.append(CosimMismatch(
                    inputs={p.name: a for p, a in zip(func.params, args)},
                    expected=expected, actual=actual))
        # Optional C-RTL leg when the repaired kernel is synthesizable.
        rtl_leg = c_rtl_cosim(repaired, top, vectors=16,
                              seed=rng.randrange(1 << 30))
        if not rtl_leg.skipped_reason:
            report.vectors_run += rtl_leg.vectors_run
            report.mismatches.extend(rtl_leg.mismatches)
        return report

    # -- stage 4 --------------------------------------------------------------------------------

    def _optimize_ppa(self, program: CProgram, top: str, clock_ns: float,
                      rng: random.Random, result: RepairResult):
        before = estimate_schedule(program, top, clock_ns)
        func = program.function(top)
        loops = find_loops(func)
        if not loops:
            return program, before, before
        # Hottest loop = largest contribution per the schedule loop details.
        details = sorted(before.loop_details, key=lambda d: -d["latency"])
        hottest_line = details[0]["line"] if details else loops[0][1].line
        target_site = None
        for site, loop in loops:
            if loop.line == hottest_line:
                target_site = site
                break
        if target_site is None:
            target_site = loops[0][0]

        best_program = program
        best = before
        # The LLM proposes pragma moves; capability gates how many it tries.
        n_moves = max(1, round(len(_PRAGMA_MOVES)
                               * self.llm.profile.semantic_reliability))
        moves = list(_PRAGMA_MOVES)
        rng.shuffle(moves)
        for pragmas in moves[:n_moves]:
            candidate = set_loop_pragmas(best_program if best is before
                                         else program, target_site, pragmas)
            try:
                candidate_sched = estimate_schedule(candidate, top, clock_ns)
            except Exception:
                continue
            area_budget = before.area_score * 3.0 + 10
            if candidate_sched.latency_cycles < best.latency_cycles \
                    and candidate_sched.area_score <= area_budget:
                best = candidate_sched
                best_program = candidate
                result.log.append(StageLog(
                    "ppa", f"accepted {'; '.join(pragmas)} -> "
                           f"{candidate_sched.latency_cycles} cycles"))
            else:
                result.log.append(StageLog(
                    "ppa", f"rejected {'; '.join(pragmas)} "
                           f"({candidate_sched.latency_cycles} cycles, "
                           f"area {candidate_sched.area_score:.0f})"))
        return best_program, before, best


def repair_source(source: str, top: str, model: str = "gpt-4",
                  use_rag: bool = True, seed: int = 0) -> RepairResult:
    """One-call convenience wrapper around :class:`HlsRepairEngine`."""
    engine = HlsRepairEngine(SimulatedLLM(model, seed=seed), use_rag=use_rag,
                             seed=seed)
    return engine.repair(source, top)
