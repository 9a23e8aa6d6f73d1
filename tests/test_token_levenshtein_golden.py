"""Token-Levenshtein identity: the SLT candidate pool sees the recorded
distance for every pair it compares, and every hand-written edge case
gives its recorded result.

The fixture ``tests/golden/token_levenshtein.json`` records, for
``run_llm_slt(hours=0.2, seed=s)`` with s in 0-3, diversity on and off:

* every distinct ``(a, b, limit)`` the pool passes to
  :func:`~repro.llm.tokenizer.token_levenshtein` (from
  ``distance_to_pool``, ``consider`` and ``mean_pairwise_distance``), in
  first-call order, as short sha256s of ``a`` and ``b`` with the limit
  and the result;
* the run's ``pool_final_diversity``.

The snippets are regenerated rather than stored, so a hash mismatch means
a generator changed, not the distance.  Edge cases (empty inputs, one
token, a length gap of exactly ``limit`` and ``limit + 1``, ``limit=0``,
inputs over 64 and over 1000 tokens, an exact result above ``limit``, and
a pair whose result depends on argument order) are built here and stored
with their results.  Re-record (only from a reviewed baseline) with::

    PYTHONPATH=src python tests/test_token_levenshtein_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import pytest

import repro.slt.pool as pool_module
from repro.llm.tokenizer import token_levenshtein
from repro.slt.loop import run_llm_slt

GOLDEN = pathlib.Path(__file__).parent / "golden" / "token_levenshtein.json"

SEEDS = (0, 1, 2, 3)
HOURS = 0.2


def _words(prefix: str, n: int, period: int | None = None) -> str:
    return " ".join(f"{prefix}{i % period if period else i}"
                    for i in range(n))


_SHARED = _words("s", 20)

# name -> (a, b, limit)
EDGES = {
    "empty_empty": ("", "", None),
    "empty_empty_limit0": ("", "", 0),
    "empty_nonempty": ("", "a b c", None),
    "empty_nonempty_within_limit": ("", "a b c", 3),
    "empty_nonempty_over_limit": ("", "a b c", 2),
    "nonempty_empty": ("a b c", "", None),
    "nonempty_empty_within_limit": ("a b c", "", 3),
    "one_token_same": ("x", "x", None),
    "one_token_diff": ("x", "y", None),
    "one_token_diff_limit0": ("x", "y", 0),
    "one_token_vs_many": ("x", "y x z", 2),
    "gap_exactly_limit": (_words("g", 5), _words("g", 8), 3),
    "gap_limit_plus_one": (_words("g", 5), _words("g", 9), 3),
    "limit0_equal": ("a + b ; c", "a + b ; c", 0),
    "limit0_one_edit": ("a + b", "a - b", 0),
    "limit0_insert": ("a b", "a x b", 0),
    "over_64_tokens": (_words("w", 70, 9), _words("w", 75, 8), None),
    "over_64_tokens_limited": (_words("w", 70, 9), _words("w", 75, 8), 12),
    "exactly_64_tokens": (_words("v", 64, 5), _words("v", 64, 6), None),
    "exactly_65_tokens": (_words("v", 65, 5), _words("v", 63, 6), 40),
    "over_1000_tokens": (_words("k", 1100, 13), _words("k", 1050, 11), None),
    "over_1000_tokens_limited": (_words("k", 1100, 13),
                                 _words("k", 1050, 11), 200),
    "over_1000_tokens_early_exit": (_words("k", 1100, 13),
                                    _words("q", 1080, 13), 64),
    "exact_above_limit": (_SHARED + " " + _words("z", 5),
                          _SHARED + " " + _words("y", 37), 32),
    "asymmetric_ab": (_SHARED + " " + _words("z", 8),
                      _SHARED + " " + _words("y", 40), 32),
    "asymmetric_ba": (_SHARED + " " + _words("y", 40),
                      _SHARED + " " + _words("z", 8), 32),
    "code_pair": ("for (int i = 0; i < n; i++) acc += a[i] * b[i];",
                  "for (int j = 0; j < m; j++) { acc ^= a[j] << 1; }", 8),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _run(seed: int, diversity: bool) -> dict:
    """One SLT run, with every distinct pair its pool compared."""
    pairs: dict[tuple[str, str, int | None], int] = {}

    def spy(a: str, b: str, limit: int | None = None) -> int:
        result = token_levenshtein(a, b, limit)
        key = (_sha(a), _sha(b), limit)
        assert pairs.setdefault(key, result) == result, key
        return result

    original = pool_module.token_levenshtein
    pool_module.token_levenshtein = spy
    try:
        result = run_llm_slt(hours=HOURS, seed=seed,
                             enforce_diversity=diversity)
    finally:
        pool_module.token_levenshtein = original
    return {"seed": seed, "diversity": diversity,
            "pool_final_diversity": result.pool_final_diversity,
            "pairs": [[a, b, limit, d] for (a, b, limit), d in pairs.items()]}


def runs() -> list[dict]:
    return [_run(seed, diversity)
            for seed in SEEDS for diversity in (True, False)]


def _edges() -> list[dict]:
    return [{"name": name, "limit": limit,
             "result": token_levenshtein(a, b, limit)}
            for name, (a, b, limit) in EDGES.items()]


# -- replay -------------------------------------------------------------------

def _fixture() -> dict:
    # Missing only while recording; the coverage test below then fails.
    if not GOLDEN.exists():
        return {"runs": [], "edges": []}
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("recorded", _fixture()["runs"],
                         ids=lambda r: f"seed{r['seed']}-"
                         f"{'diverse' if r['diversity'] else 'plain'}")
def test_pool_pairs_replay(recorded):
    replayed = _run(recorded["seed"], recorded["diversity"])
    assert len(replayed["pairs"]) == len(recorded["pairs"])
    mismatches = [(got, want) for got, want
                  in zip(replayed["pairs"], recorded["pairs"]) if got != want]
    assert not mismatches, f"{len(mismatches)} differ: {mismatches[:5]}"
    assert replayed["pool_final_diversity"] \
        == recorded["pool_final_diversity"]


@pytest.mark.parametrize("case", _fixture()["edges"], ids=lambda c: c["name"])
def test_edge_case_replays(case):
    a, b, limit = EDGES[case["name"]]
    assert limit == case["limit"]
    assert token_levenshtein(a, b, limit) == case["result"]


def test_golden_covers_limit_contract():
    fixture = _fixture()
    assert set(EDGES) == {case["name"] for case in fixture["edges"]}
    edges = {case["name"]: case["result"] for case in fixture["edges"]}
    # An exact distance above the limit is returned as is ...
    assert edges["exact_above_limit"] > 32 + 1
    # ... and only the first argument's prefixes bound the early exit.
    assert edges["asymmetric_ab"] != edges["asymmetric_ba"] == 32 + 1
    assert edges["gap_limit_plus_one"] == 3 + 1
    pairs = [pair for run in fixture["runs"] for pair in run["pairs"]]
    limits = {limit for _, _, limit, _ in pairs}
    assert {0, 32, 200} <= limits, limits
    assert any(d == limit + 1 for _, _, limit, d in pairs)
    assert any(d > limit + 1 for _, _, limit, d in pairs)
    assert len(fixture["runs"]) == 2 * len(SEEDS)
    assert GOLDEN.stat().st_size < 1_000_000


# -- recording ------------------------------------------------------------------

def record() -> None:
    fixture = {"runs": runs(), "edges": _edges()}
    GOLDEN.write_text(json.dumps(fixture, indent=0) + "\n", encoding="utf-8")
    pairs = sum(len(run["pairs"]) for run in fixture["runs"])
    print(f"recorded {len(fixture['runs'])} runs ({pairs} pairs) and "
          f"{len(fixture['edges'])} edge cases to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
