"""Tokenizer for the mini-Verilog subset.

One compiled master pattern does the scanning.  Each match consumes the
trivia in front of a token (whitespace, ``//`` lines, `` ` `` directive
lines, closed ``/* */`` blocks) and then one named alternative, and
:func:`tokenize` dispatches on the alternative's name.  Lines and columns
come from a bisection over the source's newline offsets, found once per
source, so Python code runs once per token rather than once per character
(escapes inside string literals aside).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum, auto

from .errors import LexError, SourceLocation

KEYWORDS = {
    "module", "endmodule", "input", "output", "inout", "wire", "reg",
    "assign", "always", "initial", "begin", "end", "if", "else", "case",
    "casez", "endcase", "default", "posedge", "negedge", "or", "for",
    "integer", "parameter", "localparam", "function", "endfunction",
    "signed", "repeat", "while", "genvar", "generate", "endgenerate",
}

# System tasks the simulator understands.
SYSTEM_TASKS = {
    "$display", "$write", "$finish", "$stop", "$time", "$error",
    "$monitor", "$random", "$signed", "$unsigned",
}


class TokKind(Enum):
    IDENT = auto()
    KEYWORD = auto()
    NUMBER = auto()       # plain decimal integer
    SIZED_NUMBER = auto() # e.g. 8'hff — value is (width, value, xmask)
    STRING = auto()
    OP = auto()
    SYSTASK = auto()
    EOF = auto()


@dataclass(frozen=True)
class Token:
    kind: TokKind
    text: str
    loc: SourceLocation
    # For SIZED_NUMBER: (width, value, xmask); for NUMBER: int value.
    value: object = None

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r})"


# Trivia, then one token.  `\w` is `str.isalnum()` plus `_` and `\d` is
# `str.isdecimal()`.  `[^\W\d]` also admits non-letters such as `²` and
# `½`, so `tokenize` checks that an identifier starts with a letter or `_`.
# BASED takes every `'` after a size, so that `_based` reports a zero width
# or a bad base there; a `'` with neither size nor base falls to OTHER.
_SCAN = re.compile(r"""
    (?:[ \t\r\n]+ | //[^\n]* | `[^\n]* | /\*.*?\*/)*
    (?:
        (?P<IDENT>[^\W\d][\w$]*)
      | (?P<OPEN_COMMENT>/\*)
      | (?P<OP><<<|>>>|===|!==|<<|>>|<=|>=|==|!=|&&|\|\||\*\*
            |[-+*/%&|^~!<>=?:(),;.\[\]{}\#@])
      | (?P<BASED>\d[\d_]*'[sS]?(?:[bBoOdDhH][\w?]*)?|'[bBoOdDhH][\w?]*)
      | (?P<NUMBER>\d[\d_]*)
      | (?P<STRING>"[^"\\]*(?:\\.[^"\\]*)*")
      | (?P<SYSTASK>\$\w*)
      | (?P<EOF>\Z)
      | (?P<OTHER>.)
    )
""", re.VERBOSE | re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
_BASES = {"b": 2, "B": 2, "o": 8, "O": 8, "d": 10, "D": 10, "h": 16, "H": 16}
_WORD_KINDS = dict.fromkeys(KEYWORDS, TokKind.KEYWORD)


def _parse_based_digits(digits: str, base: int, width: int, loc: SourceLocation) -> tuple[int, int]:
    """Return (value, xmask) for a based literal's digit string."""
    value = 0
    xmask = 0
    bits_per = {2: 1, 8: 3, 16: 4}.get(base)
    digits = digits.replace("_", "")
    if base == 10:
        if "x" in digits.lower() or "z" in digits.lower():
            if len(digits) != 1:
                raise LexError(f"bad decimal literal digits '{digits}'", loc)
            return 0, (1 << width) - 1
        if not digits:
            raise LexError("missing digits in sized literal", loc)
        for ch in digits:
            if not ch.isdecimal():
                raise LexError(f"invalid digit '{ch}' for base 10", loc)
        return int(digits, 10), 0
    for ch in digits:
        value <<= bits_per
        xmask <<= bits_per
        cl = ch.lower()
        if cl in "xz?":
            xmask |= (1 << bits_per) - 1
        else:
            try:
                value |= int(ch, base)
            except ValueError:
                raise LexError(f"invalid digit '{ch}' for base {base}", loc) from None
    return value, xmask


def _based(text: str, loc: SourceLocation, after: str) -> Token:
    """The token for a BASED match; ``after`` is the next character, if any."""
    size, _, rest = text.partition("'")
    size = size.replace("_", "")
    width = int(size) if size else 32
    if width <= 0:
        raise LexError(f"literal width must be positive, got {width}", loc)
    if rest[:1] in ("s", "S"):  # signed base like 'sd — treat as unsigned
        rest = rest[1:]
    if not rest:
        base_ch = after.lower() or "\x00"
        raise LexError(f"invalid number base '{base_ch}'", loc)
    if len(rest) == 1:
        raise LexError("missing digits in sized literal", loc)
    value, xmask = _parse_based_digits(rest[1:], _BASES[rest[0]], width, loc)
    mask = (1 << width) - 1
    return Token(TokKind.SIZED_NUMBER, text, loc,
                 value=(width, value & mask, xmask & mask))


def tokenize(source: str) -> list[Token]:
    """Convert mini-Verilog source text into tokens, ending with EOF."""
    # Newline offsets behind a -1 that stands for the start of line 1.
    newlines = [-1]
    newlines += [m.start() for m in re.finditer("\n", source)]
    match = _SCAN.match
    out: list[Token] = []
    pos = 0
    while True:
        m = match(source, pos)
        kind = m.lastgroup
        start, pos = m.span(kind)
        line = bisect_right(newlines, start)
        loc = SourceLocation(line, start - newlines[line - 1])
        text = source[start:pos]
        if kind == "IDENT":
            word = _WORD_KINDS.get(text)
            if word is None:
                if not (text[0].isalpha() or text[0] == "_"):
                    raise LexError(f"unexpected character '{text[0]}'", loc)
                word = TokKind.IDENT
            out.append(Token(word, text, loc))
        elif kind == "OP":
            out.append(Token(TokKind.OP, text, loc))
        elif kind == "NUMBER":
            text = text.replace("_", "")
            out.append(Token(TokKind.NUMBER, text, loc, value=int(text)))
        elif kind == "BASED":
            out.append(_based(text, loc, source[pos:pos + 1]))
        elif kind == "STRING":
            text = text[1:-1]
            if "\\" in text:
                text = _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), text)
            out.append(Token(TokKind.STRING, text, loc, value=text))
        elif kind == "SYSTASK":
            if text not in SYSTEM_TASKS:
                raise LexError(f"unknown system task '{text}'", loc)
            out.append(Token(TokKind.SYSTASK, text, loc))
        elif kind == "EOF":
            out.append(Token(TokKind.EOF, "", loc))
            return out
        elif kind == "OPEN_COMMENT":
            raise LexError("unterminated block comment", loc)
        elif text == '"':
            raise LexError("unterminated string literal", loc)
        else:
            raise LexError(f"unexpected character '{text}'", loc)
