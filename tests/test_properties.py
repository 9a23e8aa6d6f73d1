"""Property-based cross-checks between independent executors.

These are the strongest tests in the suite: two implementations that share
no code must agree on randomly generated programs/designs.

* random combinational Verilog: event-driven simulator vs synthesized AIG,
* random mini-C programs (the SLT snippet space): interpreter vs compiled
  execution on the RISC-V core,
* random AIGs: optimization passes preserve the boolean function.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.hdl import parse_module
from repro.hls import Machine, cparse
from repro.riscv import assemble, compile_program, run_program
from repro.slt import random_genome
from repro.synth import Aig, check_aigs, check_against_simulation, \
    optimize, synthesize_module


# --------------------------------------------------------------------------
# Random combinational Verilog expressions
# --------------------------------------------------------------------------

_BIN_OPS = ["+", "-", "&", "|", "^", "<<", ">>", "*"]
_CMP_OPS = ["==", "!=", "<", ">="]


def _random_expr(rng: random.Random, names: list[str], depth: int) -> str:
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.55:
            return rng.choice(names)
        if roll < 0.8:
            return f"4'd{rng.randrange(16)}"
        name = rng.choice(names)
        return f"{name}[{rng.randrange(4)}]"
    roll = rng.random()
    left = _random_expr(rng, names, depth - 1)
    right = _random_expr(rng, names, depth - 1)
    if roll < 0.55:
        op = rng.choice(_BIN_OPS)
        if op in ("<<", ">>"):
            right = f"2'd{rng.randrange(4)}"
        return f"({left} {op} {right})"
    if roll < 0.7:
        return f"({left} {rng.choice(_CMP_OPS)} {right})"
    if roll < 0.8:
        cond = _random_expr(rng, names, depth - 1)
        return f"(({cond}) != 0 ? ({left}) : ({right}))"
    if roll < 0.9:
        return f"(~{left})"
    return f"{{{left}, {right}}}"


def _random_module(seed: int) -> str:
    rng = random.Random(seed)
    names = ["a", "b", "c"]
    body = _random_expr(rng, names, depth=3)
    return (f"module rand_mod(input [3:0] a, input [3:0] b, input [3:0] c, "
            f"output [7:0] y);\n"
            f"  assign y = {body};\n"
            f"endmodule\n")


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_simulator_and_synthesizer_agree_on_random_logic(seed):
    src = _random_module(seed)
    module = parse_module(src)
    try:
        synth = synthesize_module(module)
    except Exception:
        return  # outside the synthesizable subset (e.g. width explosion)
    cec = check_against_simulation(synth, src, module, vectors=24,
                                   seed=seed + 1)
    assert cec.equivalent, f"seed {seed}: {cec.counterexample}\n{src}"


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_optimization_preserves_random_logic(seed):
    src = _random_module(seed)
    try:
        synth = synthesize_module(parse_module(src))
    except Exception:
        return
    optimized = optimize(synth.aig).aig
    cec = check_aigs(synth.aig, optimized, max_exhaustive_inputs=12,
                     random_vectors=128)
    assert cec.equivalent, f"seed {seed} broke optimization:\n{src}"


# --------------------------------------------------------------------------
# Random mini-C programs: interpreter vs RISC-V core
# --------------------------------------------------------------------------


@pytest.mark.slow
@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_interpreter_and_core_agree_on_random_programs(seed):
    genome = random_genome(random.Random(seed), realistic=True)
    source = genome.render()
    program = cparse(source)
    interp = Machine(program, max_steps=5_000_000).call("main")
    stats = run_program(assemble(compile_program(program)))
    assert stats.return_value == interp.value, \
        f"seed {seed}: interp={interp.value} core={stats.return_value}"


# --------------------------------------------------------------------------
# Random AIG construction invariants
# --------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_aig_cleanup_preserves_outputs(seed):
    rng = random.Random(seed)
    aig = Aig()
    literals = [aig.add_input(f"i{k}") for k in range(4)]
    for _ in range(12):
        a = rng.choice(literals)
        b = rng.choice(literals)
        op = rng.randrange(3)
        if op == 0:
            literals.append(aig.and_(a, b))
        elif op == 1:
            literals.append(aig.or_(a, b))
        else:
            literals.append(aig.xor_(a, b))
    aig.add_output("y", literals[-1])
    aig.add_output("z", rng.choice(literals))
    cleaned = aig.cleanup()
    assert check_aigs(aig, cleaned).equivalent
    assert cleaned.num_ands <= aig.num_ands


# --------------------------------------------------------------------------
# Critic verdicts: pure functions of the candidate in every mode
# --------------------------------------------------------------------------


def _candidate_text(seed: int) -> str:
    """A random module, sometimes corrupted the way bad candidates are."""
    rng = random.Random(seed)
    src = _random_module(seed)
    roll = rng.random()
    if roll < 0.25:
        src = src.replace("assign y =", "assign y = 8'bx +", 1)
    elif roll < 0.45:
        src = src[: len(src) * 2 // 3]          # token-limit truncation
    elif roll < 0.6:
        src = src.replace("4'd", "4'h", 1) + "// 4'h3_wrong\n"
    return src


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_critic_verdict_is_pure_function_of_candidate_and_seed(seed):
    from repro.critic import Critic

    text = _candidate_text(seed)
    first = Critic(flow="prop").review_source(text)
    again = Critic(flow="prop").review_source(text)
    assert first == again
    # Batch review order cannot change any verdict.
    other = _candidate_text(seed + 1)
    critic = Critic(flow="prop")
    assert critic.review([text, other]) == \
        list(reversed(critic.review([other, text])))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_critic_verdicts_match_direct_and_parallel(seed):
    from concurrent.futures import ThreadPoolExecutor

    from repro.critic import Critic

    texts = [_candidate_text(seed + k) for k in range(4)]
    direct = Critic(flow="prop").review(texts)

    parallel_critic = Critic(flow="prop")
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(parallel_critic.review_source, texts))

    assert direct == parallel
