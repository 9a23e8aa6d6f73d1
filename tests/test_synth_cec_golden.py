"""Synthesis and CEC identity: every AIG the security flow builds keeps its
node order, optimization history, PPA and equivalence verdicts.

The fixture ``tests/golden/synth_cec.json`` records, per design:

* a sha256 of ``topological_order()`` for the raw and the optimized AIG of
  every synthesizable problem reference and every inserted trojan;
* ``optimize(...).history`` and every :class:`PpaReport` field, raw and
  optimized;
* the self-check ``check_aigs(g, g)`` and, for combinational designs,
  ``check_against_simulation`` against the reference source.

It also records every :class:`CecResult` field of the reference against
each trojan (trojan seeds 0-3) at several ``max_exhaustive_inputs``, so
both the exhaustive and the random-vector paths are pinned, and of a set
of hand-built edge cases.  Re-record (only from a reviewed baseline)
with::

    PYTHONPATH=src python tests/test_synth_cec_golden.py --record
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import sys

import pytest

from repro.bench.problems import all_problems
from repro.flows.security import insert_trojan
from repro.hdl import parse_module
from repro.synth import (Aig, SynthesisError, check_against_simulation,
                         check_aigs, estimate_ppa, optimize,
                         synthesize_module)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "synth_cec.json"

TROJAN_SEEDS = (0, 1, 2, 3)
THRESHOLDS = (18, 12, 4)
RANDOM_VECTORS = 4096


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode("ascii")).hexdigest()


def _cec(result) -> dict:
    return dataclasses.asdict(result)


# -- the designs -----------------------------------------------------------------

def designs() -> dict[str, tuple[str, str, str]]:
    """Every synthesizable design as ``name -> (source, reference,
    module_name)``: each problem reference, then each trojan inserted
    into it."""
    out = {}
    for p in all_problems():
        variants = [("reference", p.reference)]
        for seed in TROJAN_SEEDS:
            design = insert_trojan(p, seed=seed)
            if design is not None:
                variants.append((f"trojan{seed}", design.source))
        for tag, source in variants:
            try:
                synthesize_module(parse_module(source, p.module_name))
            except SynthesisError:
                continue
            out[f"{p.problem_id}/{tag}"] = (source, p.reference, p.module_name)
    return out


def _design_record(source: str, reference: str, module_name: str) -> dict:
    synth = synthesize_module(parse_module(source, module_name))
    opt = optimize(synth.aig)
    record = {
        "order_raw": _sha(synth.aig.topological_order()),
        "order_opt": _sha(opt.aig.topological_order()),
        "history": opt.history,
        "ppa_raw": dataclasses.asdict(estimate_ppa(synth)),
        "ppa_opt": dataclasses.asdict(estimate_ppa(
            dataclasses.replace(synth, aig=opt.aig))),
        "self_check": _cec(check_aigs(synth.aig, synth.aig)),
    }
    if not synth.is_sequential:
        record["vs_simulation"] = _cec(check_against_simulation(
            synth, reference, parse_module(reference, module_name)))
    return record


def cec_cases(by_name: dict[str, tuple[str, str, str]]) -> dict[str, tuple]:
    """``name -> (reference, trojan, module_name, max_exhaustive_inputs)``
    for the reference against each trojan at each threshold."""
    out = {}
    for name, (source, reference, module) in by_name.items():
        if name.endswith("/reference"):
            continue
        for threshold in THRESHOLDS:
            out[f"{name}/max{threshold}"] = (reference, source, module,
                                             threshold)
    return out


def _cec_record(reference: str, trojan: str, module_name: str,
                threshold: int) -> dict:
    golden = synthesize_module(parse_module(reference, module_name)).aig
    suspect = synthesize_module(parse_module(trojan, module_name)).aig
    return _cec(check_aigs(golden, suspect, max_exhaustive_inputs=threshold,
                           random_vectors=RANDOM_VECTORS))


# -- hand-built edge cases ----------------------------------------------------------

def _and_of(inputs: int, complemented: frozenset[int] = frozenset()) -> Aig:
    """``y`` = AND of inputs ``x00..``, complementing those listed."""
    aig = Aig()
    acc = 1
    for j in range(inputs):
        literal = aig.add_input(f"x{j:02d}")
        acc = aig.and_(acc, literal ^ (1 if j in complemented else 0))
    aig.add_output("y", acc)
    return aig


def _const(inputs: int, value: int, output: str = "y") -> Aig:
    aig = Aig()
    for j in range(inputs):
        aig.add_input(f"x{j:02d}")
    aig.add_output(output, value)
    return aig


def _pair(left: str, right: str, gate: str) -> Aig:
    aig = Aig()
    a, b = aig.add_input(left), aig.add_input(right)
    aig.add_output("y", getattr(aig, gate)(a, b))
    aig.add_output("z", a)
    return aig


def edge_cases() -> dict[str, tuple[Aig, Aig, dict]]:
    n = 13
    high = frozenset(range(1, n))
    return {
        "random_zero_vectors": (_pair("a", "b", "and_"), _pair("a", "b", "or_"),
                                {"max_exhaustive_inputs": 0,
                                 "random_vectors": 0}),
        "one_sided_inputs": (_pair("a", "b", "and_"), _pair("a", "c", "and_"),
                             {}),
        "one_sided_inputs_random": (_pair("a", "b", "and_"),
                                    _pair("a", "c", "and_"),
                                    {"max_exhaustive_inputs": 1}),
        "one_sided_equivalent": (_pair("a", "b", "or_"), _pair("a", "c", "or_"),
                                 {"max_exhaustive_inputs": 1,
                                  "random_vectors": 1}),
        "no_shared_outputs": (_const(1, 0, "p"), _const(1, 0, "q"), {}),
        "zero_inputs_equal": (_const(0, 1), _const(0, 1), {}),
        "zero_inputs_differ": (_const(0, 1), _const(0, 0), {}),
        "zero_inputs_random": (_const(0, 1), _const(0, 0),
                               {"max_exhaustive_inputs": -1}),
        "chunk_first_vector": (_and_of(n, frozenset(range(n))), _const(n, 0),
                               {"max_exhaustive_inputs": n}),
        "chunk_last_of_first": (_and_of(n, frozenset({0})), _const(n, 0),
                                {"max_exhaustive_inputs": n}),
        "chunk_first_of_second": (_and_of(n, high), _const(n, 0),
                                  {"max_exhaustive_inputs": n}),
        "chunk_last_vector": (_and_of(n), _const(n, 0),
                              {"max_exhaustive_inputs": n}),
        "chunk_equivalent": (_and_of(n), _and_of(n).cleanup(),
                             {"max_exhaustive_inputs": n}),
        "random_path_mismatch": (_and_of(3, frozenset({0, 2})), _const(3, 0),
                                 {"max_exhaustive_inputs": 0,
                                  "random_vectors": 64}),
        "two_outputs_differ": (_pair("a", "b", "and_"), _pair("b", "a", "or_"),
                               {}),
    }


# -- replay -------------------------------------------------------------------------

def _fixture() -> dict:
    # Missing only while recording; the coverage test below then fails.
    if not GOLDEN.exists():
        return {"designs": {}, "cec": {}, "edges": {}}
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def generated() -> dict[str, tuple[str, str, str]]:
    return designs()


@pytest.mark.parametrize("name", sorted(_fixture()["designs"]))
def test_design_replays(generated, name):
    assert _design_record(*generated[name]) == _fixture()["designs"][name]


@pytest.mark.parametrize("name", sorted(_fixture()["cec"]))
def test_cec_replays(generated, name):
    assert _cec_record(*cec_cases(generated)[name]) == _fixture()["cec"][name]


@pytest.mark.parametrize("name", sorted(_fixture()["edges"]))
def test_edge_case_replays(name):
    a, b, kwargs = edge_cases()[name]
    assert _cec(check_aigs(a, b, **kwargs)) == _fixture()["edges"][name]


def test_golden_covers_both_paths(generated):
    fixture = _fixture()
    assert set(fixture["designs"]) == set(generated)
    assert set(fixture["cec"]) == set(cec_cases(generated))
    assert set(fixture["edges"]) == set(edge_cases())
    results = list(fixture["cec"].values())
    assert any(r["exhaustive"] for r in results)
    assert any(not r["exhaustive"] for r in results)
    assert all(not r["equivalent"] for r in results if r["exhaustive"])
    for pid in ("c2_adder8", "c2_absdiff"):
        assert any(name.startswith(f"{pid}/trojan") for name in fixture["cec"])


# -- recording ------------------------------------------------------------------------

def record() -> None:
    by_name = designs()
    fixture = {
        "designs": {name: _design_record(*design)
                    for name, design in by_name.items()},
        "cec": {name: _cec_record(*case)
                for name, case in cec_cases(by_name).items()},
        "edges": {name: _cec(check_aigs(a, b, **kwargs))
                  for name, (a, b, kwargs) in edge_cases().items()},
    }
    GOLDEN.write_text(json.dumps(fixture, indent=0, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"recorded {len(fixture['designs'])} designs, "
          f"{len(fixture['cec'])} CEC pairs and {len(fixture['edges'])} edge "
          f"cases to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
