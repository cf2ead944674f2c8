"""Exact rational scalars: rising factorials, parsing helpers, and `ParamVector`, the
tuple of the exponents of the weight x^g (1-|x|)^{g_{d+1}}.

Every scalar the package hands out is a ``fractions.Fraction``; polynomial
coefficients are stored as ints over a common denominator (see
`polynomials`) and become Fractions when read; `clear_denominators` turns a
list of rationals into ints over the lcm of their denominators for the
integer kernels.  `rising` is the one integer rising factorial: the moment
sum `moments.pairings`, the Leibniz sums of `bases` and `pochhammer` all
read it.  Nothing here (or anywhere else) rounds.  `as_fraction` judges
every rational the package takes, `parse_int` every numeral it reads (at most
`MAX_DIGITS` ASCII digits), `is_index` (an int in range, never a bool) every
index, exponent, degree and dimension, and `ParamVector.integrable` every
weight that must be integrable.  A `ParamVector` prints as "g1,...,gd+1".
The module imports only `errors`: parsing a weight loads nothing else.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import NonIntegrableWeight

Rational = Union[int, Fraction]


def is_index(value: object, low: float, high: float = math.inf) -> bool:
    """Whether `value` is an int (a bool is not one) with low <= value <= high."""
    return type(value) is int and low <= value <= high


# "p" or "p/q" in ASCII digits, p signed: no exponent, decimal point or underscore
_RATIONAL = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*")
# the most digits a numeral may have, whatever the interpreter's limit.  A result may
# print longer ones, which are not read back: a larger bound lets a 5,000-digit --n run forever
MAX_DIGITS = 4300


def parse_int(text: str) -> int:
    """A numeral "p" of `_RATIONAL` of at most `MAX_DIGITS` digits as an int, else a
    ValueError, converted 640 digits at a time: the least int() limit the interpreter takes."""
    if "/" in text or not _RATIONAL.fullmatch(text):
        raise ValueError(f"{text!r} is not an integer")
    digits = text.strip().lstrip("+-")
    if len(digits) > MAX_DIGITS:
        raise ValueError(f"a {len(text.strip())}-character numeral is too long to read")
    value = 0
    for piece in (digits[i:i + 640] for i in range(0, len(digits), 640)):
        value = value * 10 ** len(piece) + int(piece)
    return -value if "-" in text else value


def as_fraction(value: object) -> Fraction:
    """An int, Fraction or "p/q" string (p and q read by `parse_int`) as an
    exact Fraction; anything else (a float, a bool, None, "0.5", "1e3"), or a
    zero denominator, is a ValueError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        try:
            return Fraction(*map(parse_int, value.split("/")))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise ValueError(f"{value!r} is not an exact rational")


def rising(start: int, step: int, k: int) -> int:
    """D^k (a)_k for start = D a and step = D: start (start+D) ... (start+(k-1)D)."""
    return math.prod(range(start, start + k * step, step))


def pochhammer(a: Rational, k: int) -> Fraction:
    """Rising factorial a*(a+1)*...*(a+k-1); equals 1 when k == 0."""
    if not is_index(k, 0):
        raise ValueError("pochhammer needs an int k >= 0")
    a = as_fraction(a)
    return Fraction(rising(a.numerator, a.denominator, k), a.denominator ** k)


def clear_denominators(values: Sequence[Rational]) -> tuple[list[int], int]:
    """The values times L, the lcm of their denominators (1 if none), and L."""
    L = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (L // v.denominator) for v in values], L


class ParamVector(tuple):
    """Weight exponents (g_1, ..., g_d, g_{d+1}) for x^g * (1-|x|)^{g_{d+1}}, as a tuple of Fractions."""

    __slots__ = ()

    def __new__(cls, entries: Iterable[Rational | str]) -> "ParamVector":
        vals = super().__new__(cls, map(as_fraction, entries))
        if len(vals) < 2:
            raise ValueError("need at least two entries (d >= 1)")
        return vals

    @property
    def d(self) -> int:
        return len(self) - 1

    def integrable(self) -> "ParamVector":
        """The weight itself when every exponent is > -1, else NonIntegrableWeight."""
        if any(g <= -1 for g in self):
            raise NonIntegrableWeight(f"weight exponents ({self}) are not all > -1")
        return self

    def singular_split(self) -> tuple[tuple[Fraction, ...], int]:
        """(tail, k): the entries before the trailing block of -1 entries, and
        the size k >= 1 of that block; an entry below -1, a -1 elsewhere, or
        no -1 at all is a ValueError."""
        if any(g < -1 for g in self):
            raise ValueError("exponents below -1 are not supported")
        k = 0
        while k < len(self) and self[-1 - k] == -1:
            k += 1
        tail = self[:len(self) - k]
        if -1 in tail:
            raise ValueError("-1 entries must form a trailing block; permute the "
                             "coordinates so that they do")
        if not k:
            raise ValueError("a singular weight needs a trailing block of -1 entries")
        return tail, k

    def shifted(self, deltas: Sequence[Rational]) -> "ParamVector":
        if len(deltas) != len(self):
            raise ValueError("shift has wrong length")
        return ParamVector([g + as_fraction(t) for g, t in zip(self, deltas)])

    def with_values(self, assignments: Mapping[int, Rational]) -> "ParamVector":
        if not all(is_index(i, 0, self.d) for i in assignments):
            raise ValueError(f"bad entry indices {list(assignments)} for dimension {self.d}")
        return ParamVector([assignments.get(i, g) for i, g in enumerate(self)])

    @classmethod
    def parse(cls, text: str) -> "ParamVector":
        return cls(text.split(","))

    def __str__(self) -> str:
        return ",".join(map(str, self))

    def __repr__(self) -> str:
        return f"ParamVector({self})"

    def to_json(self) -> list[str]:
        return [str(g) for g in self]


def face_params(gamma: ParamVector, zeroed: Iterable[int]) -> ParamVector:
    """Exponents of the weight restricted to the face where `zeroed` vanish:
    the surviving entries, in order, as in Polynomial.restrict."""
    zset = zero_set(zeroed, gamma.d)
    if not 0 < len(zset) <= gamma.d - 1:
        raise ValueError(f"bad face {sorted(zset)} for dimension {gamma.d}")
    return ParamVector([g for i, g in enumerate(gamma) if i not in zset])


def zero_set(zeroed: Iterable[int], d: int) -> frozenset[int]:
    """The zeroed indices of a face of T^d, index d the hyperplane 1-|x| = 0;
    an entry that is not an int in 0..d, a bool too, is a ValueError."""
    zset = frozenset(zeroed)
    bad = [i for i in zset if not is_index(i, 0, d)]
    if bad:
        raise ValueError(f"bad face index {bad[0]!r} for dimension {d}")
    return zset
