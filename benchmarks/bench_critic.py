"""Critic calibration + per-flow lift benchmark -> BENCH_critic.json.

Two measurements back the critic's acceptance criteria:

* **rule calibration** — the deterministic validators against the labeled
  adversarial corpus (``tests/corpus/critic/``) and the golden problem
  references: false-accept rate on the corpus and false-reject rate on
  the references must both be exactly zero;
* **per-flow lift** — each flow's headline quality metric with
  ``REPRO_CRITIC=0`` vs ``=1`` on a weak-model sweep, recording the
  pass@k lift (or cost) the critic buys per flow.

Run standalone (``python benchmarks/bench_critic.py``) or via pytest
(``pytest benchmarks/bench_critic.py -s``).  ``REPRO_FULL_EVAL=1``
raises the sweep size.
"""

from __future__ import annotations

import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from _util import full_eval, print_table  # noqa: E402

from repro import obs  # noqa: E402
from repro.bench.problems import all_problems, get_problem  # noqa: E402
from repro.critic import validate_pragmas, validate_rtl  # noqa: E402

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_OUT_PATH = os.path.join(_REPO_ROOT, "BENCH_critic.json")
_CORPUS_DIR = os.path.join(_REPO_ROOT, "tests", "corpus", "critic")
_META = re.compile(r"taxonomy=([a-z-]+)\s+rule=(\S+)")

_MODEL = "chatgpt-3.5"


def _corpus():
    entries = []
    for name in sorted(os.listdir(_CORPUS_DIR)):
        path = os.path.join(_CORPUS_DIR, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        meta = _META.search(text)
        entries.append((name, meta.group(1), text))
    return entries


# -- rule calibration ---------------------------------------------------------

def bench_rule_calibration() -> dict:
    """Rule validators: FA on the corpus, FR on the references."""
    corpus = _corpus()
    false_accepts = []
    for name, taxonomy, text in corpus:
        verdict = (validate_pragmas(text) if name.endswith(".c")
                   else validate_rtl(text))
        if verdict.ok or taxonomy not in verdict.labels():
            false_accepts.append(name)
    references = all_problems()
    false_rejects = [p.problem_id for p in references
                     if not validate_rtl(p.reference).ok]
    return {
        "corpus_cases": len(corpus),
        "references": len(references),
        "false_accepts": false_accepts,
        "false_rejects": false_rejects,
        "false_accept_rate": round(len(false_accepts) / len(corpus), 6),
        "false_reject_rate": round(len(false_rejects) / len(references), 6),
    }


# -- per-flow lift ------------------------------------------------------------

def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _flow_runners(problems, seeds):
    """flow -> zero-arg callable returning the headline metric in [0,1]."""

    def autochip():
        from repro.flows.autochip import run_autochip
        return _mean(float(run_autochip(p, _MODEL, k=3, depth=2,
                                        seed=s).success)
                     for s in seeds for p in problems)

    def vrank():
        from repro.flows.vrank import vrank as run
        return _mean(float(run(p, _MODEL, n_candidates=4,
                               seed=s).selected_passed)
                     for s in seeds for p in problems)

    def structured():
        from repro.flows.structured import run_structured_sweep
        sweep = run_structured_sweep("gpt-4", problems, seeds=tuple(seeds))
        return _mean(float(r.success) for r in sweep.results)

    def chipchat():
        from repro.flows.chipchat import run_chipchat_tapeout
        return _mean(float(r.success)
                     for s in seeds
                     for r in run_chipchat_tapeout(problems, _MODEL,
                                                   seed=s).results)

    def crosscheck():
        from repro.flows.crosscheck import guided_debug_sweep
        sweep = guided_debug_sweep(problems, _MODEL, seeds=tuple(seeds))
        return _mean(float(r.success) for r in sweep.results)

    def hierarchical():
        from repro.flows.hierarchical import hierarchical_sweep
        sweep = hierarchical_sweep(problems, "cl-verilog-34b",
                                   seeds=tuple(seeds))
        return _mean(float(r.success) for r in sweep.results)

    def assertgen():
        from repro.flows.assertgen import assertion_sweep
        sweep = assertion_sweep(problems, "gpt-4", seeds=tuple(seeds))
        return _mean(r.mutant_kill_rate for r in sweep.results)

    def autobench():
        # A bench that falsely rejects the golden design is unusable, so
        # its kill rate counts for nothing; the critic's screen trades a
        # little kill coverage for eliminating false rejects.
        from repro.flows.autobench import testbench_quality
        reports = [testbench_quality(p, _MODEL, seed=s)
                   for s in seeds for p in problems]
        return _mean(0.0 if r.false_reject else r.mutant_kill_rate
                     for r in reports)

    def security():
        from repro.flows.security import detection_sweep
        sweep = detection_sweep(problems, seeds=tuple(seeds), jobs=1)
        return _mean(sweep.values())

    return {"autochip": autochip, "vrank": vrank, "structured": structured,
            "chipchat": chipchat, "crosscheck": crosscheck,
            "hierarchical": hierarchical, "assertgen": assertgen,
            "autobench": autobench, "security": security}


def bench_flow_lift() -> dict:
    """Each flow's headline metric, REPRO_CRITIC=0 vs =1."""
    problems = ([get_problem("c2_gray"), get_problem("c2_absdiff"),
                 get_problem("c3_alu")] if full_eval()
                else [get_problem("c2_gray"), get_problem("c3_alu")])
    seeds = (0, 1, 2) if full_eval() else (0, 1)
    runners = _flow_runners(problems, seeds)

    saved = os.environ.get("REPRO_CRITIC")
    results: dict[str, dict] = {}
    try:
        for flow, run in runners.items():
            os.environ["REPRO_CRITIC"] = "0"
            obs.reset_metrics()
            off = run()
            os.environ["REPRO_CRITIC"] = "1"
            obs.reset_metrics()
            on = run()
            reviewed = obs.get_metrics().counter("critic.candidates").value
            rejected = obs.get_metrics().counter("critic.rejected").value
            results[flow] = {"off": round(off, 6), "on": round(on, 6),
                             "lift": round(on - off, 6),
                             "reviewed": reviewed, "rejected": rejected}
    finally:
        if saved is None:
            os.environ.pop("REPRO_CRITIC", None)
        else:
            os.environ["REPRO_CRITIC"] = saved
        obs.reset_metrics()
    return results


def main() -> dict:
    data = {
        "model": _MODEL,
        "rules": bench_rule_calibration(),
        "flows": bench_flow_lift(),
    }
    with open(_OUT_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")

    rules = data["rules"]
    print_table(
        "E-critic: calibration (rules must be exactly 0 / 0)",
        ["stage", "false_accept_rate", "false_reject_rate"],
        [["rules", rules["false_accept_rate"], rules["false_reject_rate"]]])
    print_table(
        "E-critic: per-flow lift (critic off -> on)",
        ["flow", "off", "on", "lift", "reviewed", "rejected"],
        [[flow, cell["off"], cell["on"], cell["lift"],
          cell["reviewed"], cell["rejected"]]
         for flow, cell in sorted(data["flows"].items())])
    return data


def test_critic_calibration(benchmark=None):
    data = main()
    # The acceptance gate: rule validators never accept a labeled-bad
    # candidate and never reject a golden reference.
    assert data["rules"]["false_accept_rate"] == 0.0
    assert data["rules"]["false_reject_rate"] == 0.0
    # The critic must never *cost* pass@k on the engine flows it filters.
    for flow in ("autochip", "vrank"):
        assert data["flows"][flow]["lift"] >= 0.0


if __name__ == "__main__":
    main()
