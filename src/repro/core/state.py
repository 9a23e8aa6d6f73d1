"""Multi-modal design state for the unified EDA agent (Fig. 6).

The paper's envisioned agent integrates "natural language specifications,
HDL designs, and multi-modal data, such as schematics, netlists, and
physical layouts, into a unified representation".  :class:`DesignState` is
that representation for this reproduction: one object carrying every
modality a design accumulates on its way from spec to (estimated) silicon,
plus the full stage history so cross-stage feedback can inspect it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class StageRecord:
    stage: str
    success: bool
    detail: str
    artifacts: dict[str, Any] = field(default_factory=dict)


@dataclass
class DesignState:
    """Everything known about one design across all modalities."""

    # Natural-language modality.
    spec: str
    enriched_spec: str = ""

    # Software modality (HLS input).
    c_source: str = ""

    # RTL modality.
    rtl_source: str = ""
    module_name: str = ""

    # Netlist modality.
    netlist: Any = None          # repro.synth.SynthesizedModule
    aig_stats: dict[str, int] = field(default_factory=dict)

    # Physical/QoR modality.
    ppa: Any = None              # repro.synth.PpaReport
    schedule: Any = None         # repro.hls.ScheduleReport

    # Verification modality.
    verified: bool = False
    verification_detail: str = ""
    assertions_valid: int = 0
    lint_warnings: list[str] = field(default_factory=list)
    # Critic rejection verdicts (taxonomy-labelled failure strings).  The
    # planner folds these into observations, and the agent threads them —
    # alongside lint warnings — into regeneration feedback on re-opens.
    critic_verdicts: list[str] = field(default_factory=list)

    # Provenance.
    history: list[StageRecord] = field(default_factory=list)

    def record(self, stage: str, success: bool, detail: str,
               **artifacts: Any) -> StageRecord:
        entry = StageRecord(stage, success, detail, dict(artifacts))
        self.history.append(entry)
        return entry

    def stage_succeeded(self, stage: str) -> bool:
        return any(r.stage == stage and r.success for r in self.history)

    def modalities_present(self) -> list[str]:
        out = ["spec"]
        if self.c_source:
            out.append("software")
        if self.rtl_source:
            out.append("rtl")
        if self.netlist is not None:
            out.append("netlist")
        if self.ppa is not None:
            out.append("qor")
        return out
