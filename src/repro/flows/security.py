"""Hardware-security evaluation for LLM-generated RTL (Section VI,
"Privacy and Security").

The paper warns that "malicious code or hardware Trojans may be inserted
into the generated hardware designs via the cloud platform" (RTL-Breaker's
threat model).  This module makes the threat and the defenses concrete:

* :func:`insert_trojan` — compromise a design with a classic combinational
  trojan: a rare-input trigger that corrupts one output bit.  The payload
  is syntactically valid and survives compilation, exactly why functional
  testing struggles to catch it.
* Detectors, in increasing strength:
  - ``testbench`` — the problem's sign-off bench (directed tests rarely hit
    a rare trigger);
  - ``random_cosim`` — random-vector comparison against a trusted reference
    (catch rate scales with vector budget vs trigger rarity);
  - ``exhaustive_cec`` — AIG equivalence checking against the reference
    (sound for small combinational designs: always catches a functional
    trojan).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from ..bench.harness import evaluate_candidate
from ..bench.problems import Problem
from ..config import get_settings
from ..exec import SweepScheduler
from ..hdl import parse_module
from ..hdl.testbench import exercise_module
from ..llm.model import _stable_seed
from ..synth import check_aigs, synthesize_module
from .autobench import _interface


@dataclass
class TrojanSpec:
    trigger_input: str
    trigger_value: int
    victim_output: str
    description: str


@dataclass
class CompromisedDesign:
    source: str
    trojan: TrojanSpec
    problem_id: str


def insert_trojan(problem: Problem, seed: int = 0) -> CompromisedDesign | None:
    """Insert a rare-trigger output-corruption trojan into the reference.

    Returns None for designs the simple insertion pattern cannot handle
    (sequential or port-shape mismatches).
    """
    if problem.sequential:
        return None
    rng = random.Random(_stable_seed(seed, problem.problem_id, "trojan"))
    widths, _, _ = _interface(problem)
    multi_bit = [(n, w) for n, w in widths.items() if w >= 4]
    if not multi_bit:
        return None
    trigger_input, width = rng.choice(sorted(multi_bit))
    trigger_value = rng.getrandbits(width)

    module = parse_module(problem.reference, problem.module_name)
    outputs = [p for p in module.ports if p.direction == "output"]
    if not outputs:
        return None
    victim = rng.choice(sorted(p.name for p in outputs))

    victim_port = next(p for p in outputs if p.name == victim)
    if victim_port.is_reg:
        return None  # keep the insertion pattern purely combinational

    # Redirect the victim's internal driver to a shadow net, then re-drive
    # the output port through the trigger mux (flip bit 0 on trigger).
    source = problem.reference
    shadow = f"{victim}_pre"
    source = re.sub(rf"\b{victim}\b", shadow, source)
    source = re.sub(rf"\b{shadow}\b(?=\s*[,)])", victim, source, count=1)

    if victim_port.rng is not None:
        from ..hdl.elaborate import eval_const
        msb = eval_const(victim_port.rng.msb, {})
        shadow_decl = f"  wire [{msb}:0] {shadow};"
        payload = f"({shadow} ^ 1)"
    else:
        shadow_decl = f"  wire {shadow};"
        payload = f"(~{shadow})"
    trigger = f"({trigger_input} == {width}'d{trigger_value})"
    trojan_logic = (f"{shadow_decl}\n"
                    f"  assign {victim} = {trigger} ? {payload} : {shadow};\n")
    source = source.replace("endmodule", trojan_logic + "endmodule", 1)

    spec = TrojanSpec(trigger_input, trigger_value, victim,
                      f"corrupts '{victim}' when {trigger_input}=="
                      f"{trigger_value}")
    return CompromisedDesign(source, spec, problem.problem_id)


@dataclass
class DetectionReport:
    problem_id: str
    detector: str
    detected: bool
    effort: int            # vectors simulated / checks run
    note: str = ""


def detect_with_testbench(problem: Problem,
                          design: CompromisedDesign) -> DetectionReport:
    """Directed sign-off tests: blind to rare triggers by construction."""
    result = evaluate_candidate(problem, design.source)
    return DetectionReport(problem.problem_id, "testbench",
                           not result.passed, result.total_checks,
                           "directed tests")


def detect_with_random_cosim(problem: Problem, design: CompromisedDesign,
                             vectors: int = 64,
                             seed: int = 0) -> DetectionReport:
    """Random-vector comparison against the trusted reference."""
    widths, clk, reset = _interface(problem)
    rng = random.Random(_stable_seed(seed, problem.problem_id, "cosimdet"))
    stimulus = [{n: rng.getrandbits(w) for n, w in widths.items()}
                for _ in range(vectors)]
    golden = exercise_module(problem.reference, problem.module_name,
                             stimulus, clk=clk, reset=reset)
    suspect = exercise_module(design.source, problem.module_name,
                              stimulus, clk=clk, reset=reset)
    if golden is None or suspect is None:
        return DetectionReport(problem.problem_id, "random_cosim", True,
                               0, "design failed to simulate")
    detected = golden != suspect
    return DetectionReport(problem.problem_id, "random_cosim", detected,
                           vectors)


def detect_with_critic(problem: Problem,
                       design: CompromisedDesign) -> DetectionReport:
    """Structural critic scan: flags the rare-trigger corruption mux.

    Unlike the simulation detectors this needs no vectors at all — the
    critic's trojan rule matches the mux shape directly in the AST — so
    its effort is one static pass.
    """
    from ..critic.rules import validate_rtl
    verdict = validate_rtl(design.source, problem.module_name)
    detected = "trojan" in verdict.labels()
    return DetectionReport(problem.problem_id, "critic", detected, 1,
                           "structural rule scan")


def detect_with_cec(problem: Problem,
                    design: CompromisedDesign) -> DetectionReport:
    """Formal equivalence against the reference netlist (sound)."""
    try:
        golden = synthesize_module(parse_module(problem.reference,
                                                problem.module_name))
        suspect = synthesize_module(parse_module(design.source,
                                                 problem.module_name))
    except Exception as exc:
        return DetectionReport(problem.problem_id, "exhaustive_cec", True, 0,
                               f"synthesis rejected: {exc}")
    result = check_aigs(golden.aig, suspect.aig, max_exhaustive_inputs=18,
                        random_vectors=4096)
    return DetectionReport(problem.problem_id, "exhaustive_cec",
                           not result.equivalent, result.vectors_checked,
                           "exhaustive" if result.exhaustive else "random")


def detect_trojan_task(payload: tuple) -> dict[str, bool] | None:
    """``(problem, seed, cosim_vectors) -> dict[str, bool] | None``.

    Runs the full detector hierarchy for one compromised design; ``None``
    when the trojan insertion pattern does not apply to the problem.
    """
    problem, seed, cosim_vectors = payload
    design = insert_trojan(problem, seed=seed)
    if design is None:
        return None
    cell = {
        "testbench": detect_with_testbench(problem, design).detected,
        "random_cosim": detect_with_random_cosim(
            problem, design, vectors=cosim_vectors, seed=seed).detected,
        "exhaustive_cec": detect_with_cec(problem, design).detected,
    }
    # Workers inherit REPRO_CRITIC (fork), so the gate matches the parent:
    # the default-config cell dict stays golden-identical.
    if get_settings().critic_enabled:
        cell["critic"] = detect_with_critic(problem, design).detected
    return cell


def detection_sweep(problems: list[Problem], cosim_vectors: int = 64, *,
                    seeds: tuple[int, ...] = (0, 1, 2),
                    jobs: int | str | None = None) -> dict[str, float]:
    """Catch rate per detector across compromised designs.

    Every (seed, problem) cell runs the full detector hierarchy
    independently, so the sweep is scheduled over ``jobs`` workers
    (serial when unset); aggregation order is fixed, so the result
    is identical to the serial sweep.
    """
    payloads = [(problem, seed, cosim_vectors)
                for seed in seeds for problem in problems]
    cells = SweepScheduler(jobs).map(detect_trojan_task, payloads)
    caught: dict[str, int] = {"testbench": 0, "random_cosim": 0,
                              "exhaustive_cec": 0}
    # The critic detector joins the sweep only when enabled, so the
    # default-config result dict (golden-serialized) is unchanged.
    if get_settings().critic_enabled:
        caught["critic"] = 0
    total = 0
    for cell in cells:
        if cell is None:
            continue
        total += 1
        for detector, detected in cell.items():
            if detected:
                caught[detector] = caught.get(detector, 0) + 1
    if total == 0:
        return {k: 0.0 for k in caught}
    return {k: v / total for k, v in caught.items()}
