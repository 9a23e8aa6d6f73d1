"""A small deterministic tokenizer used for token accounting and text
similarity.

This is not a learned BPE — it is a code-aware word/punctuation splitter that
gives stable token counts for cost accounting, prompt-budget checks, and the
n-gram similarity measures used by the candidate pool (Levenshtein operates
on tokens, not characters, to match how the SLT paper compares snippets).
"""

from __future__ import annotations

import re

_TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z_0-9]*"      # identifiers/keywords
    r"|0[xX][0-9a-fA-F]+"           # hex literals
    r"|\d+'[bodhBODH][0-9a-fA-FxXzZ_]+"  # verilog sized literals
    r"|\d+"                          # decimal
    r"|<<=|>>=|===|!==|<<<|>>>|<=|>=|==|!=|&&|\|\||<<|>>|\+\+|--|\+=|-=|\*=|/=|%="
    r"|[\[\](){};:,.?~!@#$%^&*\-+=<>/|\\]"
    r"|\"[^\"]*\""
)


def tokenize_text(text: str) -> list[str]:
    """Split source text into tokens (whitespace and comments dropped)."""
    no_line_comments = re.sub(r"//[^\n]*", " ", text)
    cleaned = re.sub(r"/\*.*?\*/", " ", no_line_comments, flags=re.S)
    return _TOKEN_RE.findall(cleaned)


def count_tokens(text: str) -> int:
    return len(tokenize_text(text))


def ngrams(tokens: list[str], n: int) -> set[tuple[str, ...]]:
    if n <= 0:
        raise ValueError("n must be positive")
    return {tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)}


def jaccard_similarity(a: str, b: str, n: int = 3) -> float:
    """Token n-gram Jaccard similarity — cheap proxy for code similarity."""
    ga = ngrams(tokenize_text(a), n)
    gb = ngrams(tokenize_text(b), n)
    if not ga and not gb:
        return 1.0
    if not ga or not gb:
        return 0.0
    return len(ga & gb) / len(ga | gb)


def token_levenshtein(a: str, b: str, limit: int | None = None) -> int:
    """Levenshtein distance between the token sequences of ``a`` and ``b``.

    The SLT loop (Section V) uses Levenshtein distance between candidate
    snippets to force pool diversity; token-level distance is what makes two
    renamings of the same loop 'close'.

    Without ``limit`` the result is the exact distance.  With ``limit`` it
    is ``limit + 1`` when the token counts differ by more than ``limit``, or
    when every prefix of ``b`` is more than ``limit`` edits from ``a``
    (``min_j D(a, b[:j]) > limit``); otherwise it is the exact distance,
    which may itself exceed ``limit``.  The prefix rule makes the limited
    result depend on argument order.
    """
    return _token_distance(tokenize_text(a), tokenize_text(b), limit)


def _token_distance(ta: list[str], tb: list[str],
                    limit: int | None) -> int:
    """Myers' bit-parallel edit distance (J. ACM 1999, in Hyyro's global
    form), with ``ta`` as the bit vector: bit ``i`` of ``vp``/``vn`` is the
    +1/-1 step from ``D(i, j)`` to ``D(i + 1, j)`` in the current column
    ``j``, and ``score`` is ``D(len(ta), j)``.  ``low`` is the last row's
    minimum, ``min_j D(len(ta), j)``; see DESIGN.md section 17."""
    if limit is not None and abs(len(ta) - len(tb)) > limit:
        return limit + 1
    if not ta:
        return len(tb)
    peq: dict[str, int] = {}
    for i, tok in enumerate(ta):
        peq[tok] = peq.get(tok, 0) | (1 << i)
    full = (1 << len(ta)) - 1
    top = 1 << (len(ta) - 1)
    vp, vn = full, 0
    score = low = len(ta)
    for tok in tb:
        eq = peq.get(tok, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        ph = vn | ~(xh | vp)
        mh = vp & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
            if score < low:
                low = score
        ph = (ph << 1) | 1
        vp = ((mh << 1) | ~(xv | ph)) & full
        vn = ph & xv
    if limit is not None and low > limit:
        return limit + 1
    return score


def normalized_levenshtein(a: str, b: str) -> float:
    """Distance scaled to [0, 1] by the longer token sequence."""
    ta, tb = tokenize_text(a), tokenize_text(b)
    longest = max(len(ta), len(tb))
    if longest == 0:
        return 0.0
    return _token_distance(ta, tb, None) / longest
