"""Chip-Chat: conversational hardware co-design (Section IV, [2]).

An experienced human designer drives a general conversational model through
a design dialogue: request, inspect, give targeted feedback, repeat.  The
human's feedback is *precise* (they read the code), so each intervention
fixes a concrete defect — the contrast with unattended flows is exactly the
paper's point that Chip-Chat "relied on an experienced hardware designer to
guide the development".  The dialogue loop runs on the
:class:`repro.engine.LoopKernel` (one candidate, a human in the loop).

Also provides the Tiny-Tapeout-style sign-off summary (the QTcore-A1
narrative: the first AI-written tapeout).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bench.harness import evaluate_candidate, make_task
from ..bench.problems import Problem
from ..engine import Budget, LoopKernel, RoundState, RunRecord
from ..exec import SweepScheduler
from ..llm.client import LLMClient, resolve_client
from ..llm.model import SimulatedLLM
from ..llm.prompts import PromptStrategy


@dataclass
class ChipChatTurn:
    role: str            # 'designer' | 'model' | 'tool'
    content: str


@dataclass
class ChipChatResult:
    problem_id: str
    model: str
    success: bool
    final_source: str
    model_turns: int = field(default=0, kw_only=True)
    human_turns: int = field(default=0, kw_only=True)
    tool_runs: int = field(default=0, kw_only=True)
    transcript: list[ChipChatTurn] = field(default_factory=list)

    def summary(self) -> str:
        status = "shipped" if self.success else "abandoned"
        return (f"{self.problem_id} [{self.model}]: {status} after "
                f"{self.model_turns} model turns, {self.human_turns} human "
                f"feedback turns")


class ChipChatSession:
    """Human-guided conversational design of one module."""

    def __init__(self, llm: "SimulatedLLM | LLMClient",
                 max_model_turns: int = 8,
                 temperature: float = 0.7):
        self.llm = llm
        self.max_model_turns = max_model_turns
        self.temperature = temperature

    def run(self, problem: Problem,
            budget: Budget | None = None) -> ChipChatResult:
        task = make_task(problem)
        chat = self.llm.chat(system="You are collaborating with an "
                                    "experienced hardware designer on a "
                                    "tapeout.")
        transcript: list[ChipChatTurn] = []
        transcript.append(ChipChatTurn("designer", problem.spec))

        record = RunRecord(flow="chipchat", problem_id=problem.problem_id,
                           model=self.llm.profile.name)
        tokens_before = self.llm.usage.total_tokens
        st: dict = {"generation": None, "result_tb": None, "human_turns": 0}
        from ..critic import resolve_critic
        critic = resolve_critic("chipchat")

        def step(state: RoundState, sp) -> str | None:
            if st["generation"] is None:
                st["generation"] = chat.ask_for_design(
                    task, strategy=PromptStrategy.CONVERSATIONAL,
                    temperature=self.temperature,
                    sample_index=state.round_no - 1)
                record.generations += 1
            transcript.append(ChipChatTurn(
                "model", f"<design {len(st['generation'].text)}B>"))
            if critic is not None:
                # Only ever reached with REPRO_CRITIC=1, so the extra
                # transcript turn cannot disturb default-config fixtures.
                cv = critic.review([st["generation"].text],
                                   problem.module_name)[0]
                record.critic_reviews += 1
                if not cv.ok:
                    record.critic_rejections += 1
                    record.critic_verdicts.append(
                        {"round": state.round_no,
                         "verdicts": [cv.summary()]})
                    transcript.append(ChipChatTurn("critic", cv.feedback()))
            result_tb = evaluate_candidate(problem, st["generation"].text)
            st["result_tb"] = result_tb
            record.tool_evaluations += 1
            transcript.append(ChipChatTurn("tool", result_tb.feedback(4)))
            if result_tb.passed:
                return "passed"
            # The experienced designer reads the failure and the code, then
            # gives targeted feedback; the model applies the precise fix.
            st["human_turns"] += 1
            transcript.append(ChipChatTurn(
                "designer", "Here is exactly what is wrong — fix that line."))
            st["generation"] = self.llm.apply_human_fix(task,
                                                        st["generation"])
            record.generations += 1
            chat.add_tool_output(result_tb.feedback(4))
            return None

        LoopKernel(step=step, record=record, budget=budget,
                   max_rounds=self.max_model_turns,
                   span_name="chipchat.turn").run()

        result_tb = st["result_tb"]
        generation = st["generation"]
        record.charge_tokens(self.llm.usage.total_tokens - tokens_before)
        result = ChipChatResult(
            problem.problem_id, self.llm.profile.name,
            bool(result_tb and result_tb.passed),
            generation.text if generation else "",
            model_turns=record.rounds_used,
            human_turns=st["human_turns"],
            tool_runs=record.tool_evaluations,
            transcript=transcript)
        result.run_record = record
        return result


@dataclass
class TapeoutReport:
    """Aggregate of a Chip-Chat 'tapeout' over a design suite."""

    results: list[ChipChatResult] = field(default_factory=list)

    @property
    def shipped(self) -> int:
        return sum(r.success for r in self.results)

    @property
    def mean_human_turns(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.human_turns for r in self.results) / len(self.results)

    def summary(self) -> str:
        return (f"{self.shipped}/{len(self.results)} blocks shipped; "
                f"mean human feedback turns: {self.mean_human_turns:.1f}")


def chipchat_task(payload: tuple) -> ChipChatResult:
    """``(problem, model, seed) -> ChipChatResult`` — one Chip-Chat block."""
    problem, model, seed = payload
    return ChipChatSession(resolve_client(model, seed=seed)).run(problem)


def run_chipchat_tapeout(problems: list[Problem],
                         model: str | SimulatedLLM | LLMClient = "gpt-4", *,
                         seed: int = 0,
                         jobs: int | str | None = None) -> TapeoutReport:
    """Drive every block of a small 'tapeout' through Chip-Chat.

    Blocks are independent (each gets a fresh chat session), so a plain
    profile name goes through the :class:`~repro.exec.SweepScheduler`;
    client instances are not picklable and run serially.  Ordering follows
    ``problems`` either way.
    """
    if isinstance(model, str):
        cells = [(problem, model, seed) for problem in problems]
        return TapeoutReport(SweepScheduler(jobs).map(chipchat_task, cells))
    llm = resolve_client(model, seed=seed)
    session = ChipChatSession(llm)
    report = TapeoutReport()
    for problem in problems:
        report.results.append(session.run(problem))
    return report
