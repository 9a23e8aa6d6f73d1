"""Lexer identity: every source in ``tests/golden/hdl_lexer.json`` lexes to
the recorded token stream, or raises the recorded error.

Per source the fixture records either the token count and a sha256 of the
canonical ``(kind, text, line, column, value)`` stream, or the exception
type, message, line and column.  The sources are regenerated here rather
than stored, so each entry also keeps a sha256 of its source: a mismatch
there means a generator changed, not the lexer.  They are:

* every problem's reference and testbench;
* every ``.v`` file under ``tests/corpus`` (comments there hold em dashes).
  These entries pin each file's raw bytes, comments included, through the
  source sha256 and the seeded mutants below: even a comment-only edit to
  a corpus file fails the replay, so a corpus edit must re-record;
* :mod:`repro.fuzz` designs and testbenches at fixed seeds;
* :class:`~repro.llm.SimulatedLLM` ``generate`` and ``refine`` candidates
  at fixed seeds, malformed ones included;
* seeded character-level mutants of all of the above.

Hand-written edge cases are stored with their source and full token
stream.  Re-record (only from a reviewed baseline) with::

    PYTHONPATH=src python tests/test_hdl_lexer_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import sys

import pytest

from repro.hdl.errors import HdlError
from repro.hdl.lexer import tokenize

GOLDEN = pathlib.Path(__file__).parent / "golden" / "hdl_lexer.json"
CORPUS = pathlib.Path(__file__).parent / "corpus"

FUZZ_SEEDS = (0, 1)
FUZZ_CASES = 30
LLM_MODELS = ("chatgpt-3.5", "gpt-4", "gpt-4o", "codellama-34b-instruct")
LLM_SEEDS = (0, 5)
MUTANTS = 1500

# Hand-written edge cases, stored with their full token streams.
EDGES = {
    "tabs": "\tmodule\tm ;\n\t\tx\t= 1;",
    "space_before_tick": "8 'hff",
    "unsized_s": "'s",
    "unsized_signed": "'sd1",
    "signed_base_eof": "8's",
    "signed_base": "8'sh7f 4'SB1010",
    "tick_eof": "8'",
    "lone_dollar": "$",
    "dollar_in_ident": "a$b $display$x",
    "zero_width": "0'h1",
    "decimal_x": "8'dx 8'dZ 8'd_x_",
    "decimal_xx": "8'dxx",
    "decimal_bad_digit": "8'd1a",
    "decimal_question": "8'd?",
    "decimal_underscore_only": "8'd_",
    "superscript_digit": "a = ²;",
    "digit_then_superscript": "1²",
    "vulgar_fraction": "½",
    "based_forms": "4'b1x0z 6'o7? 12'hFx_Z 3'B101 'hdead_beef 10'd512",
    "based_bad_digit": "4'b102",
    "based_underscore_only": "8'h_",
    "missing_digits": "8'h ;",
    "bad_base": "8'q12",
    "big_width": "70'h3_ffff_ffff_ffff_ffff_f",
    "plain_numbers": "0 42 1_000 007",
    "escapes": r'"a\nb\tc\"d\\e\qf"',
    "string_escaped_newline": '"ab\\\ncd" x',
    "string_spanning_lines": '"one\ntwo\nthree" y',
    "unterminated_string": 'x = "oops',
    "unterminated_string_backslash": '"oops\\',
    "unterminated_block_comment": "a /* never\nends",
    "block_comment_spanning_lines": "a /* x\ny\n  z */ b\n c",
    "block_comment_star_slash": "a /*/ b */ c /**/ d",
    "line_comment_then_block": "a //* not a block\n b",
    "directive": "`timescale 1ns/1ps\n`define W 8\nmodule",
    "eof_after_trailing_trivia": "a // tail\n  /* c */ \n\t ",
    "eof_after_comment_no_newline": "a // tail",
    "crlf": "a\r\n  b\r\n",
    "nonascii_ident": "é1 _x ñandú",
    "em_dash_in_comment": "a // x — y\n/* — */ b",
    "em_dash_outside_comment": "a — b",
    "operators": "<<< >>> === !== << >> <= >= == != && || ** <<= a>=b "
                 "+-*/%&|^~!<>=?:(),;.[]{}#@",
    "unexpected_quote": "a ' b",
    "unexpected_backslash": "a \\ b",
    "unexpected_nul": "a \x00 b",
    "form_feed": "a\x0cb",
    "unknown_systask": "$bogus(1);",
    "systasks": "$display $write $finish $stop $time $error $monitor "
                "$random $signed $unsigned",
    "keywords": "module endmodule input output inout wire reg assign always "
                "initial begin end if else case casez endcase default "
                "posedge negedge or for integer parameter localparam "
                "function endfunction signed repeat while genvar generate "
                "endgenerate Module BEGIN",
    "empty": "",
    "only_trivia": " \n\n  ",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stream(tokens) -> list:
    return [[t.kind.name, t.text, t.loc.line, t.loc.column,
             list(t.value) if isinstance(t.value, tuple) else t.value]
            for t in tokens]


def _outcome(source: str, full: bool = False) -> dict:
    """The lexer's result on ``source``: a stream digest or an error."""
    try:
        tokens = tokenize(source)
    except HdlError as exc:
        return {"error": {"type": type(exc).__name__, "message": exc.message,
                          "line": exc.loc.line, "column": exc.loc.column}}
    stream = _stream(tokens)
    if full:
        return {"stream": stream}
    return {"tokens": len(stream),
            "stream": _sha(json.dumps(stream, ensure_ascii=True))}


# -- the generated sources ----------------------------------------------------

def _base_sources() -> list[tuple[str, str]]:
    from repro.bench.harness import make_task
    from repro.bench.problems import all_problems
    from repro.fuzz.grammar import generate_case
    from repro.llm import SimulatedLLM
    from repro.llm.prompts import Prompt

    problems = all_problems()
    out: list[tuple[str, str]] = []
    for p in problems:
        out.append((f"problem_{p.problem_id}_reference", p.reference))
        out.append((f"problem_{p.problem_id}_testbench", p.testbench))
    for path in sorted(CORPUS.rglob("*.v")):
        out.append((f"corpus_{path.relative_to(CORPUS).as_posix()}",
                    path.read_text(encoding="utf-8")))
    for seed in FUZZ_SEEDS:
        for index in range(FUZZ_CASES):
            case = generate_case(seed, index)
            out.append((f"fuzz_{seed}_{index}_dut", case.dut_source))
            out.append((f"fuzz_{seed}_{index}_tb", case.tb_source))
    for p in problems:
        task = make_task(p)
        for model in LLM_MODELS:
            for seed in LLM_SEEDS:
                llm = SimulatedLLM(model, seed=seed)
                name = f"llm_{p.problem_id}_{model}_{seed}"
                first = llm.generate(task, Prompt(spec=task.spec),
                                     temperature=1.2)
                out.append((f"{name}_gen0", first.text))
                out.append((f"{name}_gen1", llm.generate(
                    task, temperature=0.7, sample_index=1).text))
                out.append((f"{name}_refine_compile", llm.refine(
                    task, first, "COMPILE ERROR: syntax error near ';'").text))
                out.append((f"{name}_refine_sim", llm.refine(
                    task, first, "FAIL: output mismatch at t=40").text))
    return out


# Characters a mutant may insert: token starts, trivia openers, literal
# parts and non-ASCII letters, digits and punctuation.
_MUTANT_ALPHABET = list("'\"/*`$\\\n\t _?xzXZsShdbo019a{};#@=<>!&|") + [
    "²", "½", "é", "—", "٣", "\x00", "\r", "/*", "*/", "//", "8'", "'d",
    "'h", "4'b", "\\\"", "\"", "$display", "$bogus"]


def _mutate(source: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(source) + 1)
        op = rng.random()
        if op < 0.45:
            source = source[:i] + rng.choice(_MUTANT_ALPHABET) + source[i:]
        elif op < 0.7:
            source = source[:i] + source[i + rng.randint(1, 4):]
        elif op < 0.85:
            j = rng.randrange(len(source) + 1)
            source = source[:i] + source[j:j + rng.randint(1, 12)] \
                + source[i:]
        else:
            source = source[:i]
    return source


def sources() -> list[tuple[str, str]]:
    """Every generated ``(name, source)`` the fixture covers, in order."""
    base = _base_sources()
    out = list(base)
    for n in range(MUTANTS):
        rng = random.Random(f"hdl-lexer-mutant:{n}")
        name, source = rng.choice(base)
        out.append((f"mutant_{n}_{name}", _mutate(source, rng)))
    return out


# -- replay -------------------------------------------------------------------

def _fixture() -> dict:
    # Missing only while recording; the coverage test below then fails.
    if not GOLDEN.exists():
        return {"generated": [], "edges": []}
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def generated() -> dict[str, str]:
    return dict(sources())


def test_generated_sources_replay(generated):
    recorded = _fixture()["generated"]
    assert [case["name"] for case in recorded] == list(generated)
    changed = [case["name"] for case in recorded
               if _sha(generated[case["name"]]) != case["source"]]
    assert not changed, f"source generators changed: {changed[:5]}"
    mismatches = [case["name"] for case in recorded
                  if _outcome(generated[case["name"]]) != case["outcome"]]
    assert not mismatches, f"{len(mismatches)} differ: {mismatches[:10]}"


@pytest.mark.parametrize("case", _fixture()["edges"], ids=lambda c: c["name"])
def test_edge_case_replays(case):
    assert _outcome(case["source"], full=True) == case["outcome"]


def test_golden_covers_errors_and_sources():
    fixture = _fixture()
    outcomes = [case["outcome"] for case in
                fixture["generated"] + fixture["edges"]]
    messages = [o["error"]["message"] for o in outcomes if "error" in o]
    for prefix in ("unexpected character", "unterminated string literal",
                   "unterminated block comment", "unknown system task",
                   "invalid number base", "missing digits in sized literal",
                   "invalid digit", "bad decimal literal digits",
                   "literal width must be positive"):
        assert any(m.startswith(prefix) for m in messages), prefix
    names = [case["name"] for case in fixture["generated"]]
    for prefix in ("problem_", "corpus_", "fuzz_", "llm_", "mutant_"):
        assert any(name.startswith(prefix) for name in names), prefix
    assert set(EDGES) == {case["name"] for case in fixture["edges"]}
    assert GOLDEN.stat().st_size < 1_000_000


# -- recording ------------------------------------------------------------------

def record() -> None:
    generated = [{"name": name, "source": _sha(source),
                  "outcome": _outcome(source)}
                 for name, source in sources()]
    edges = [{"name": name, "source": source,
              "outcome": _outcome(source, full=True)}
             for name, source in EDGES.items()]
    GOLDEN.write_text(json.dumps({"generated": generated, "edges": edges},
                                 indent=0, ensure_ascii=True) + "\n",
                      encoding="utf-8")
    raising = sum("error" in case["outcome"] for case in generated)
    print(f"recorded {len(generated)} sources ({raising} raising) and "
          f"{len(edges)} edge cases to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
