"""``repro.core`` — the unified multi-modal LLM-EDA agent of Fig. 6.

Orchestrates specification review, RTL generation with tool feedback,
static analysis, verification, logic synthesis, and closed-loop QoR
refinement over one shared multi-modal design state, on the one
plan/act/observe loop the planner agent also runs.
"""

from .agent import (AgentConfig, AgentRunReport, AgentSweep, EdaAgent,
                    ScriptedPolicy, run_agent_sweep)
from .planner import (GroundedPolicy, PlannerAgent, PlannerRunReport,
                      PlanStep, run_plan_loop)
from .policy import (PlanAction, SimulatedPlanner, parse_action,
                     render_action)
from .report import agent_report_text, format_table, sweep_report_text
from .state import DesignState, StageRecord

__all__ = [
    "AgentConfig", "AgentRunReport", "AgentSweep", "DesignState",
    "EdaAgent", "GroundedPolicy", "PlanAction", "PlanStep", "PlannerAgent",
    "PlannerRunReport", "ScriptedPolicy", "SimulatedPlanner", "StageRecord",
    "agent_report_text", "format_table", "parse_action", "render_action",
    "run_agent_sweep", "run_plan_loop", "sweep_report_text",
]
