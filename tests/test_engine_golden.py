"""Engine byte-identity: every flow vs. pre-refactor golden records.

The fixtures under ``tests/golden/`` were captured from the serial,
pre-engine loops (before the ``repro.engine`` refactor landed) at fixed
seeds.  Each scenario runs a full flow through its public entry point and
serializes the *public result dataclass* to plain JSON; the tests then
assert that the engine-based implementations reproduce those records
byte-for-byte.

Regenerate (only when a behaviour change is intended and reviewed)::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_engine_golden.py -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib

import pytest

from repro.bench.problems import get_problem

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN", "") == "1"


def _plain(value):
    """Recursively convert a flow result into JSON-plain data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, float):
        return round(value, 9)
    return value


# -- scenario runners ---------------------------------------------------------
# One per registered flow plus the agent pipeline, the SLT loop and the HLS
# repair loop (the non-flow loops the engine also hosts).  Parameters are
# fixed and small; every runner returns JSON-plain data.

def _autochip():
    from repro.flows.autochip import run_autochip
    result = run_autochip(get_problem("c3_alu"), "chatgpt-3.5",
                          k=3, depth=2, seed=1)
    return _plain(result)


def _structured():
    from repro.flows.structured import run_structured_sweep
    sweep = run_structured_sweep(
        "gpt-4", [get_problem("c2_gray"), get_problem("c2_absdiff")],
        seeds=(0,))
    return _plain(sweep.results)


def _vrank():
    from repro.flows.vrank import vrank
    result = vrank(get_problem("c2_gray"), "chatgpt-3.5",
                   n_candidates=4, seed=2)
    return _plain(result)


def _chipchat():
    from repro.flows.chipchat import run_chipchat_tapeout
    report = run_chipchat_tapeout([get_problem("c2_adder8")], "chatgpt-3.5",
                                  seed=0)
    return _plain(report.results)


def _crosscheck():
    from repro.flows.crosscheck import guided_debug_sweep
    sweep = guided_debug_sweep([get_problem("c3_alu")], "chatgpt-3.5",
                               seeds=(0, 1))
    return _plain(sweep.results)


def _hierarchical():
    from repro.flows.hierarchical import hierarchical_sweep
    sweep = hierarchical_sweep([get_problem("c2_gray")], "cl-verilog-34b",
                               seeds=(0, 1))
    return _plain(sweep.results)


def _assertgen():
    from repro.flows.assertgen import assertion_sweep
    sweep = assertion_sweep([get_problem("c2_gray")], "gpt-4", seeds=(0,))
    return _plain(sweep.results)


def _autobench():
    from repro.flows.autobench import testbench_quality
    reports = [testbench_quality(get_problem("c2_gray"), "chatgpt-3.5",
                                 seed=0, self_correct=sc)
               for sc in (False, True)]
    return _plain(reports)


def _security():
    from repro.flows.security import detection_sweep
    return _plain(detection_sweep(
        [get_problem("c2_gray"), get_problem("c2_absdiff")], seeds=(0,)))


def _agent():
    from repro.core.agent import AgentConfig, EdaAgent
    report = EdaAgent(AgentConfig(model="chatgpt-3.5"), seed=4).run(
        get_problem("c2_adder8"))
    return {
        "problem_id": report.problem_id,
        "model": report.model,
        "success": report.success,
        "reopens": report.reopens,
        "total_tokens": report.total_tokens,
        "stage_table": _plain(report.stage_table()),
        "summary": report.summary(),
    }


def _slt():
    from repro.slt.loop import run_llm_slt
    result = run_llm_slt(hours=0.2, seed=3)
    return {
        "best_power_w": round(result.best_power_w, 9),
        "snippets_generated": result.snippets_generated,
        "elapsed_hours": round(result.elapsed_hours, 9),
        "stop_reason": result.stop_reason,
        "compile_failures": result.compile_failures,
        "events": _plain(result.events),
        "best_source": result.best_source,
    }


def _hls_repair():
    from repro.bench.workloads import repair_workload
    from repro.hls import repair_source
    w = repair_workload("malloc_sum")
    result = repair_source(w.source, w.top, model="gpt-4", seed=1)
    return {
        "success": result.success,
        "rounds": result.rounds,
        "issues_found": [str(i) for i in result.issues_found],
        "issues_fixed": result.issues_fixed,
        "issues_remaining": result.issues_remaining,
        "latent_missed": result.latent_missed,
        "repaired_source": result.repaired_source,
    }


def _compare_budgets():
    from repro.flows.autochip import compare_budgets
    comparison = compare_budgets(
        "chatgpt-3.5", [get_problem("c2_gray"), get_problem("c2_absdiff")],
        budget=3, seeds=(0, 1))
    return _plain(comparison)


SCENARIOS = {
    "autochip": _autochip,
    "structured": _structured,
    "vrank": _vrank,
    "chipchat": _chipchat,
    "crosscheck": _crosscheck,
    "hierarchical": _hierarchical,
    "assertgen": _assertgen,
    "autobench": _autobench,
    "security": _security,
    "agent": _agent,
    "slt": _slt,
    "hls_repair": _hls_repair,
    "compare_budgets": _compare_budgets,
}


def _fixture_path(name: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{name}.json"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_direct(name):
    """Engine path == pre-refactor serial loop (direct client)."""
    path = _fixture_path(name)
    got = SCENARIOS[name]()
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        return
    assert path.exists(), (
        f"missing golden fixture {path}; regenerate with "
        f"REPRO_REGEN_GOLDEN=1 (only from a reviewed baseline)")
    want = json.loads(path.read_text())
    assert got == want


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_critic_off_replay(name, monkeypatch):
    """Explicit ``REPRO_CRITIC=0`` replays every fixture byte-identical.

    This is the critic's byte-identity acceptance gate: with the knob
    off (explicitly, not just unset) ``resolve_critic`` returns ``None``
    and every flow must take exactly its pre-critic code path.
    """
    if REGEN:
        pytest.skip("fixtures regenerate from the direct path only")
    path = _fixture_path(name)
    assert path.exists()
    monkeypatch.setenv("REPRO_CRITIC", "0")
    want = json.loads(path.read_text())
    got = SCENARIOS[name]()
    assert got == want


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_planner_off_replay(name, monkeypatch):
    """The removed planner switch is inert: every fixture still replays.

    ``REPRO_AGENT_PLANNER`` once routed ``EdaAgent.run`` to the planner's
    tools instead of the fixed pipeline.  Both now run the one agent loop
    and nothing reads the variable, so a stale ``=1`` left in an
    environment must not move any flow off its recorded results.
    """
    if REGEN:
        pytest.skip("fixtures regenerate from the direct path only")
    path = _fixture_path(name)
    assert path.exists()
    monkeypatch.setenv("REPRO_AGENT_PLANNER", "1")
    want = json.loads(path.read_text())
    got = SCENARIOS[name]()
    assert got == want


def test_critic_annotates_without_changing_selection(monkeypatch):
    """All-accepted reviews: public result identical, record annotated.

    A strong model on an easy problem produces only rule-clean
    candidates, so the critic rejects nothing — selection, scores and
    the public result dataclass must match the critic-off run exactly,
    while the (non-serialized) run record carries the verdicts.
    """
    from repro.flows.autochip import run_autochip

    monkeypatch.setenv("REPRO_CRITIC", "0")
    off = run_autochip(get_problem("c1_mux2"), "gpt-4o", k=2, depth=1,
                       seed=0)
    monkeypatch.setenv("REPRO_CRITIC", "1")
    on = run_autochip(get_problem("c1_mux2"), "gpt-4o", k=2, depth=1,
                      seed=0)
    assert _plain(on) == _plain(off)
    assert on.run_record.critic_reviews == on.run_record.generations
    assert on.run_record.critic_rejections == 0
    assert on.run_record.critic_verdicts
    assert all(v["ok"] for entry in on.run_record.critic_verdicts
               for v in entry["verdicts"])
    assert off.run_record.critic_verdicts == []
