"""Four-state logic vectors for the mini-Verilog simulator.

A :class:`Logic` is a fixed-width bit vector in which every bit is one of
``0``, ``1`` or ``X`` (unknown).  ``Z`` is folded into ``X`` — the subset of
Verilog we support has no tristate buses, and Verilog's own arithmetic already
treats ``Z`` operands as ``X``.

The representation is two integers: ``value`` holds the known bits and
``xmask`` marks the unknown ones.  A bit position with ``xmask`` set is
unknown regardless of the corresponding ``value`` bit (which is kept at zero
as a normal form so equality and hashing are structural).
"""

from __future__ import annotations

from dataclasses import dataclass


def _mask(width: int) -> int:
    return (1 << width) - 1


@dataclass(frozen=True)
class Logic:
    """An unsigned four-state bit vector of fixed ``width``."""

    width: int
    value: int = 0
    xmask: int = 0

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"Logic width must be positive, got {self.width}")
        m = _mask(self.width)
        xm = self.xmask & m
        # Normalise: unknown bits always carry value 0.
        object.__setattr__(self, "xmask", xm)
        object.__setattr__(self, "value", self.value & m & ~xm)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(value: int, width: int) -> "Logic":
        return Logic(width, value & _mask(width), 0)

    @staticmethod
    def unknown(width: int) -> "Logic":
        return Logic(width, 0, _mask(width))

    # -- predicates --------------------------------------------------------

    @property
    def has_x(self) -> bool:
        return self.xmask != 0

    def is_true(self) -> bool:
        """Verilog truthiness: true iff some known bit is 1."""
        return self.value != 0

    def is_false(self) -> bool:
        """True iff the value is definitely zero (no X bits, value 0)."""
        return self.value == 0 and self.xmask == 0

    # -- conversions -------------------------------------------------------

    def to_int(self) -> int:
        """The integer value; X bits read as 0 (matching $display of X-free use)."""
        return self.value

    def to_signed(self) -> int:
        v = self.value
        if v & (1 << (self.width - 1)):
            v -= 1 << self.width
        return v

    def bit(self, i: int) -> "Logic":
        if i < 0 or i >= self.width:
            return Logic.unknown(1)
        return Logic(1, (self.value >> i) & 1, (self.xmask >> i) & 1)

    def slice(self, msb: int, lsb: int) -> "Logic":
        if msb < lsb:
            msb, lsb = lsb, msb
        width = msb - lsb + 1
        if lsb >= self.width:
            return Logic.unknown(width)
        return Logic(width, self.value >> lsb, self.xmask >> lsb)

    def resize(self, width: int) -> "Logic":
        """Zero-extend or truncate to ``width`` (X bits extend as known 0)."""
        return Logic(width, self.value, self.xmask)

    def __str__(self) -> str:
        if not self.has_x:
            return f"{self.width}'h{self.value:x}"
        bits = []
        for i in range(self.width - 1, -1, -1):
            if (self.xmask >> i) & 1:
                bits.append("x")
            else:
                bits.append(str((self.value >> i) & 1))
        return f"{self.width}'b{''.join(bits)}"

    __repr__ = __str__

    # -- arithmetic (X-propagating: any X operand poisons the result) ------

    def _arith(self, other: "Logic", op, width: int | None = None) -> "Logic":
        w = width if width is not None else max(self.width, other.width)
        if self.has_x or other.has_x:
            return Logic.unknown(w)
        return Logic.from_int(op(self.value, other.value), w)

    def add(self, other: "Logic") -> "Logic":
        # One growth bit keeps the carry: Verilog sizes expressions by
        # context (including the LHS), so dropping the carry at the operand
        # width would corrupt `wire [8:0] s = a + b` with 8-bit operands.
        # Assignment truncates to the target width anyway.
        return self._arith(other, lambda a, b: a + b,
                           max(self.width, other.width) + 1)

    def sub(self, other: "Logic") -> "Logic":
        return self._arith(other, lambda a, b: a - b,
                           max(self.width, other.width) + 1)

    def mul(self, other: "Logic") -> "Logic":
        return self._arith(other, lambda a, b: a * b,
                           min(128, self.width + other.width))

    def div(self, other: "Logic") -> "Logic":
        w = max(self.width, other.width)
        if self.has_x or other.has_x or other.value == 0:
            return Logic.unknown(w)
        return Logic.from_int(self.value // other.value, w)

    def mod(self, other: "Logic") -> "Logic":
        w = max(self.width, other.width)
        if self.has_x or other.has_x or other.value == 0:
            return Logic.unknown(w)
        return Logic.from_int(self.value % other.value, w)

    def pow(self, other: "Logic") -> "Logic":
        w = max(self.width, other.width)
        if self.has_x or other.has_x:
            return Logic.unknown(w)
        return Logic.from_int(pow(self.value, other.value, 1 << w), w)

    def neg(self) -> "Logic":
        if self.has_x:
            return Logic.unknown(self.width)
        return Logic.from_int(-self.value, self.width)

    # -- bitwise (X-precise per bit) ----------------------------------------

    def and_(self, other: "Logic") -> "Logic":
        w = max(self.width, other.width)
        a, b = self.resize(w), other.resize(w)
        # 0 AND anything = 0 even if the other bit is X.
        known_zero = (~a.value & ~a.xmask) | (~b.value & ~b.xmask)
        value = a.value & b.value
        xmask = (a.xmask | b.xmask) & ~known_zero
        return Logic(w, value, xmask & _mask(w))

    def or_(self, other: "Logic") -> "Logic":
        w = max(self.width, other.width)
        a, b = self.resize(w), other.resize(w)
        known_one = a.value | b.value
        value = known_one
        xmask = (a.xmask | b.xmask) & ~known_one
        return Logic(w, value, xmask & _mask(w))

    def xor(self, other: "Logic") -> "Logic":
        w = max(self.width, other.width)
        a, b = self.resize(w), other.resize(w)
        xmask = a.xmask | b.xmask
        return Logic(w, (a.value ^ b.value) & ~xmask, xmask)

    def not_(self) -> "Logic":
        return Logic(self.width, ~self.value & _mask(self.width) & ~self.xmask, self.xmask)

    # -- shifts --------------------------------------------------------------

    def shl(self, other: "Logic") -> "Logic":
        if other.has_x:
            return Logic.unknown(self.width)
        n = other.value
        if n >= self.width:
            return Logic(self.width, 0, 0)
        return Logic(self.width, self.value << n, self.xmask << n)

    def shr(self, other: "Logic") -> "Logic":
        if other.has_x:
            return Logic.unknown(self.width)
        n = other.value
        return Logic(self.width, self.value >> n, self.xmask >> n)

    # -- comparison (1-bit results; X operands give X) -----------------------

    def _cmp(self, other: "Logic", op) -> "Logic":
        if self.has_x or other.has_x:
            return Logic.unknown(1)
        return Logic(1, 1 if op(self.value, other.value) else 0, 0)

    def eq(self, other: "Logic") -> "Logic":
        return self._cmp(other, lambda a, b: a == b)

    def ne(self, other: "Logic") -> "Logic":
        return self._cmp(other, lambda a, b: a != b)

    def lt(self, other: "Logic") -> "Logic":
        return self._cmp(other, lambda a, b: a < b)

    def le(self, other: "Logic") -> "Logic":
        return self._cmp(other, lambda a, b: a <= b)

    def gt(self, other: "Logic") -> "Logic":
        return self._cmp(other, lambda a, b: a > b)

    def ge(self, other: "Logic") -> "Logic":
        return self._cmp(other, lambda a, b: a >= b)

    def case_eq(self, other: "Logic") -> "Logic":
        """``===``: X bits compare literally."""
        w = max(self.width, other.width)
        a, b = self.resize(w), other.resize(w)
        same = a.value == b.value and a.xmask == b.xmask
        return Logic(1, 1 if same else 0, 0)

    # -- logical -------------------------------------------------------------

    def logical_not(self) -> "Logic":
        if self.value != 0:
            return Logic(1, 0, 0)
        if self.has_x:
            return Logic.unknown(1)
        return Logic(1, 1, 0)

    def logical_and(self, other: "Logic") -> "Logic":
        if self.is_false() or other.is_false():
            return Logic(1, 0, 0)
        if self.has_x or other.has_x:
            return Logic.unknown(1)
        return Logic(1, 1, 0)

    def logical_or(self, other: "Logic") -> "Logic":
        if self.is_true() or other.is_true():
            return Logic(1, 1, 0)
        if self.has_x or other.has_x:
            return Logic.unknown(1)
        return Logic(1, 0, 0)

    # -- reductions -----------------------------------------------------------

    def reduce_and(self) -> "Logic":
        m = _mask(self.width)
        if (self.value | self.xmask) != m:
            return Logic(1, 0, 0)  # some known-0 bit
        if self.xmask:
            return Logic.unknown(1)
        return Logic(1, 1, 0)

    def reduce_or(self) -> "Logic":
        if self.value:
            return Logic(1, 1, 0)
        if self.xmask:
            return Logic.unknown(1)
        return Logic(1, 0, 0)

    def reduce_xor(self) -> "Logic":
        if self.xmask:
            return Logic.unknown(1)
        return Logic(1, bin(self.value).count("1") & 1, 0)

    # -- structure --------------------------------------------------------------

    def concat(self, other: "Logic") -> "Logic":
        """``{self, other}`` — self becomes the high part."""
        w = self.width + other.width
        return Logic(
            w,
            (self.value << other.width) | other.value,
            (self.xmask << other.width) | other.xmask,
        )

    def replicate(self, n: int) -> "Logic":
        if n <= 0:
            raise ValueError("replication count must be positive")
        out = self
        for _ in range(n - 1):
            out = out.concat(self)
        return out


def concat_all(parts: list[Logic]) -> Logic:
    """Concatenate left-to-right (first element is most significant)."""
    if not parts:
        raise ValueError("cannot concatenate zero parts")
    out = parts[0]
    for p in parts[1:]:
        out = out.concat(p)
    return out
