"""Tests for the mini-Verilog lexer."""

import pytest

from repro.hdl.errors import LexError
from repro.hdl.lexer import TokKind, tokenize


def kinds(src):
    return [t.kind for t in tokenize(src)[:-1]]


def texts(src):
    return [t.text for t in tokenize(src)[:-1]]


class TestBasics:
    def test_empty_source(self):
        toks = tokenize("")
        assert len(toks) == 1 and toks[0].kind is TokKind.EOF

    def test_keywords_vs_identifiers(self):
        toks = tokenize("module foo")
        assert toks[0].kind is TokKind.KEYWORD
        assert toks[1].kind is TokKind.IDENT

    def test_identifier_with_dollar_and_digits(self):
        toks = tokenize("a1_b$2")
        assert toks[0].text == "a1_b$2"

    def test_line_comment_skipped(self):
        assert texts("a // comment\n b") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert texts("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_directive_skipped(self):
        assert texts("`timescale 1ns/1ps\na") == ["a"]

    def test_location_tracking(self):
        toks = tokenize("a\n  b")
        assert toks[0].loc.line == 1
        assert toks[1].loc.line == 2 and toks[1].loc.column == 3


class TestNumbers:
    def test_plain_decimal(self):
        tok = tokenize("42")[0]
        assert tok.kind is TokKind.NUMBER and tok.value == 42

    def test_underscores_in_decimal(self):
        assert tokenize("1_000")[0].value == 1000

    def test_sized_hex(self):
        tok = tokenize("8'hFF")[0]
        assert tok.kind is TokKind.SIZED_NUMBER
        assert tok.value == (8, 0xFF, 0)

    def test_sized_binary_with_x(self):
        width, value, xmask = tokenize("4'b1x0z")[0].value
        assert width == 4
        assert xmask == 0b0101
        assert value == 0b1000

    def test_sized_decimal(self):
        assert tokenize("10'd512")[0].value == (10, 512, 0)

    def test_sized_octal(self):
        assert tokenize("6'o77")[0].value == (6, 0o77, 0)

    def test_value_masked_to_width(self):
        width, value, _ = tokenize("4'hFF")[0].value
        assert width == 4 and value == 0xF

    def test_bad_base_rejected(self):
        with pytest.raises(LexError):
            tokenize("8'q12")

    def test_missing_digits_rejected(self):
        with pytest.raises(LexError):
            tokenize("8'h ;")


class TestOperatorsAndStrings:
    def test_multichar_operators_greedy(self):
        assert texts("a <<< b") == ["a", "<<<", "b"]
        assert texts("a === b") == ["a", "===", "b"]
        assert texts("a <= b") == ["a", "<=", "b"]

    def test_string_literal(self):
        tok = tokenize('"hello"')[0]
        assert tok.kind is TokKind.STRING and tok.value == "hello"

    def test_string_escapes(self):
        assert tokenize(r'"a\nb"')[0].value == "a\nb"

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_system_task(self):
        tok = tokenize("$display")[0]
        assert tok.kind is TokKind.SYSTASK

    def test_unknown_system_task(self):
        with pytest.raises(LexError):
            tokenize("$bogus")

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a £ b")


class TestLocations:
    def test_location_after_multiline_block_comment(self):
        toks = tokenize("a /* one\ntwo\n  three */ b\n\tc")
        assert [(t.text, t.loc.line, t.loc.column) for t in toks[:-1]] == [
            ("a", 1, 1), ("b", 3, 12), ("c", 4, 2)]

    def test_location_after_multiline_string(self):
        toks = tokenize('x = "one\ntwo" y\nz')
        assert toks[2].kind is TokKind.STRING and toks[2].value == "one\ntwo"
        assert (toks[2].loc.line, toks[2].loc.column) == (1, 5)
        assert [(t.text, t.loc.line, t.loc.column) for t in toks[3:-1]] == [
            ("y", 2, 6), ("z", 3, 1)]

    def test_eof_location_after_trailing_trivia(self):
        eof = tokenize("a // tail\n  /* c */ \n\t ")[-1]
        assert eof.kind is TokKind.EOF and eof.text == ""
        assert (eof.loc.line, eof.loc.column) == (3, 3)


class TestMalformedDecimalLiterals:
    """These used to escape as a bare ``ValueError`` from ``int()``."""

    @pytest.mark.parametrize("src, message, column", [
        ("x = 8'd1a;", "invalid digit 'a' for base 10", 5),
        ("x = 8'd?;", "invalid digit '?' for base 10", 5),
        ("x = 8'd_;", "missing digits in sized literal", 5),
        ("x = ²;", "unexpected character '²'", 5),
        ("1²", "unexpected character '²'", 2),
    ])
    def test_lex_error_at_literal(self, src, message, column):
        with pytest.raises(LexError) as info:
            tokenize(src)
        assert info.value.message == message
        assert (info.value.loc.line, info.value.loc.column) == (1, column)

    def test_non_ascii_decimal_digits_still_lex(self):
        assert tokenize("٣")[0].value == 3
        assert tokenize("8'd٣")[0].value == (8, 3, 0)

    def test_run_testbench_reports_compile_error(self):
        from repro.bench.problems import get_problem
        from repro.hdl import run_testbench

        problem = get_problem("c1_and4")
        candidate = problem.reference.replace("&x;", "&x & 8'd1a;")
        assert "8'd1a" in candidate
        result = run_testbench(candidate, problem.tb_name,
                               tb_source=problem.testbench)
        assert not result.compiled and result.score == 0.0
        assert "invalid digit 'a' for base 10" in result.compile_error
