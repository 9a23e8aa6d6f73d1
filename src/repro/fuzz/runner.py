"""Campaign driver: generate cases, run oracles, shrink and file findings.

A campaign is fully determined by ``(seed, budget, config)``: the case
stream is byte-for-byte reproducible, and any finding's corpus entry
records the exact replay command.  Divergences are shrunk (unless
disabled) with the same oracle as the predicate and written to the
regression corpus, where ``tests/test_fuzz_corpus.py`` picks them up as
permanent tier-1 tests.

Checkpointing: given a :class:`~repro.store.CampaignJournal`, the runner
journals every completed case (reports digest + findings) to the artifact
store, and a ``--resume`` run replays the journaled prefix — including
re-materializing finding corpus files — so an interrupted campaign
restarted with the same seed/config produces the byte-identical
:class:`CampaignResult` an uninterrupted run would have.  Cases are
independent and keyed per index, so resuming with a *larger* budget
extends a finished campaign incrementally.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..obs import get_metrics, get_tracer
from ..store import MISS, CampaignJournal
from .grammar import FuzzCase, FuzzConfig, generate_case
from .oracles import ORACLES, OracleReport, run_oracles
from .shrink import ShrinkResult, oracle_predicate, shrink_case

DEFAULT_CORPUS_DIR = os.path.join("tests", "corpus")

# Marks the design/testbench boundary inside a corpus file so the pytest
# bridge can rebuild the two-unit compile the fuzzer used.
TB_SEPARATOR = "// --- testbench ---\n"


@dataclass
class FuzzFinding:
    """One divergence: the case, the report, and its shrunk form."""

    case: FuzzCase
    report: OracleReport
    shrunk_dut: str
    shrunk_tb: str
    shrink_checks: int = 0
    corpus_path: str | None = None

    def describe(self) -> str:
        return (f"case {self.case.index} (seed {self.case.campaign_seed}) "
                f"[{self.report.name}/{self.report.kind}] "
                f"{self.report.detail}")


@dataclass
class CampaignResult:
    budget: int
    seed: int
    cases_run: int = 0
    oracle_runs: int = 0
    oracles_skipped: int = 0
    findings: list[FuzzFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> dict:
        return {
            "budget": self.budget,
            "seed": self.seed,
            "cases_run": self.cases_run,
            "oracle_runs": self.oracle_runs,
            "oracles_skipped": self.oracles_skipped,
            "divergences": len(self.findings),
            "findings": [f.describe() for f in self.findings],
        }


def corpus_entry(finding: FuzzFinding) -> str:
    """Render a finding as a self-describing corpus ``.v`` file."""
    case = finding.case
    detail = " ".join(finding.report.detail.split())
    header = [
        f"// fuzz finding: oracle={finding.report.name} "
        f"kind={finding.report.kind}",
        f"// campaign seed={case.campaign_seed} case={case.index} "
        f"top={case.top} dut={case.dut_name}",
        f"// replay: python -m repro.fuzz --seed {case.campaign_seed} "
        f"--replay {case.index}",
        f"// detail: {detail[:200]}",
        "// expect: divergence",
    ]
    return "\n".join(header) + "\n" + finding.shrunk_dut \
        + TB_SEPARATOR + finding.shrunk_tb


def write_corpus_entry(finding: FuzzFinding, corpus_dir: str) -> str:
    os.makedirs(corpus_dir, exist_ok=True)
    name = (f"fuzz_seed{finding.case.campaign_seed}_"
            f"case{finding.case.index}_{finding.report.name}.v")
    path = os.path.join(corpus_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(corpus_entry(finding))
    return path


def campaign_fingerprint(seed: int, config: FuzzConfig | None,
                         oracle_names: tuple[str, ...] | None,
                         shrink: bool) -> tuple:
    """Everything that determines a campaign's per-case outcomes.

    The budget is deliberately excluded: cases are keyed per index, so a
    journal written at budget 50 seeds a resume at budget 100.
    """
    return ("fuzz", seed, config or FuzzConfig(), oracle_names, shrink)


def run_campaign(budget: int, seed: int,
                 config: FuzzConfig | None = None,
                 corpus_dir: str | None = DEFAULT_CORPUS_DIR,
                 shrink: bool = True,
                 oracle_names: tuple[str, ...] | None = None,
                 progress=None,
                 journal: CampaignJournal | None = None) -> CampaignResult:
    """Fuzz ``budget`` cases from ``seed``; returns the campaign record.

    ``corpus_dir=None`` disables writing finding files (used by tests);
    ``progress`` is an optional callable ``(index, n_findings)`` invoked
    after every case.  A ``journal`` checkpoints each completed case to
    the checkpoint store; with its ``resume`` flag set, journaled cases are
    replayed instead of re-run (byte-identical by construction — the
    checkpoint is the pickled outcome of the same pure case function).
    """
    config = config or FuzzConfig()
    tracer = get_tracer()
    result = CampaignResult(budget=budget, seed=seed)
    for index in range(budget):
        if journal is not None:
            snapshot = journal.lookup("case", index)
            if snapshot is not MISS:
                _restore_case(result, snapshot, corpus_dir)
                if progress is not None:
                    progress(index, len(result.findings))
                continue
        case = generate_case(seed, index, config)
        if tracer.enabled:
            span = tracer.span("fuzz.case", index=index,
                               sequential=case.sequential,
                               hierarchical=case.hierarchical)
        else:
            span = None
        with span if span is not None else _NULL_CTX:
            reports = run_oracles(case, oracle_names)
        result.cases_run += 1
        result.oracle_runs += len(reports)
        result.oracles_skipped += sum(1 for r in reports if r.skipped)
        if tracer.enabled:
            metrics = get_metrics()
            metrics.counter("fuzz.cases").add(1)
            metrics.counter("fuzz.oracle_runs").add(len(reports))
        case_findings: list[FuzzFinding] = []
        for report in reports:
            if not report.divergence:
                continue
            finding = _handle_divergence(case, report, shrink, corpus_dir,
                                         tracer)
            result.findings.append(finding)
            case_findings.append(finding)
        if journal is not None:
            journal.record(
                "case", index,
                {"oracle_runs": len(reports),
                 "oracles_skipped": sum(1 for r in reports if r.skipped),
                 "findings": case_findings})
        if progress is not None:
            progress(index, len(result.findings))
    return result


def _restore_case(result: CampaignResult, snapshot: dict,
                  corpus_dir: str | None) -> None:
    """Fold one journaled case back into the campaign record.

    Corpus files are re-materialized from the journaled findings —
    :func:`corpus_entry` is a pure render, so the rewritten file is
    byte-identical to the one the interrupted run produced.
    """
    result.cases_run += 1
    result.oracle_runs += snapshot["oracle_runs"]
    result.oracles_skipped += snapshot["oracles_skipped"]
    for finding in snapshot["findings"]:
        if corpus_dir is not None:
            finding.corpus_path = write_corpus_entry(finding, corpus_dir)
        else:
            finding.corpus_path = None
        result.findings.append(finding)


def _handle_divergence(case: FuzzCase, report: OracleReport, shrink: bool,
                       corpus_dir: str | None, tracer) -> FuzzFinding:
    shrunk = ShrinkResult(case.dut_source, case.tb_source, 0, 0, False)
    if shrink and report.kind and not report.kind.startswith("oracle-crash"):
        oracle = ORACLES[report.name]
        predicate = oracle_predicate(case, oracle, report.kind)
        shrunk = shrink_case(case, predicate)
    finding = FuzzFinding(case=case, report=report,
                          shrunk_dut=shrunk.dut_source,
                          shrunk_tb=shrunk.tb_source,
                          shrink_checks=shrunk.checks)
    if corpus_dir is not None:
        finding.corpus_path = write_corpus_entry(finding, corpus_dir)
    if tracer.enabled:
        metrics = get_metrics()
        metrics.counter("fuzz.divergences").add(1)
        metrics.counter("fuzz.shrink_checks").add(shrunk.checks)
    return finding


class _NullCtx:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_CTX = _NullCtx()
