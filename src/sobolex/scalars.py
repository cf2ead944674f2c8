"""Exact rational scalars: rising factorials, factorials, parsing helpers, and
`ParamVector`, the exponents of the weight x^g (1-|x|)^{g_{d+1}}.

Every scalar the package hands out is a ``fractions.Fraction``; polynomial
coefficients are stored as ints over a common denominator (see
`polynomials`) and become Fractions when read; `clear_denominators` turns a
list of rationals into ints over the lcm of their denominators for the
integer kernels.  `rising` is the one integer rising factorial: the moment
table, the Leibniz sums of `bases` and `pochhammer` all read it.  Nothing
here (or anywhere else) rounds.  `zero_set` is the one judge of a face's
indices.  It imports no sobolex module: parsing a weight loads nothing else.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Rational = Union[int, Fraction]


def as_fraction(value: Rational | str) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact Fraction; a bool, like
    a float, is a TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"not an exact rational: {value!r}")


def rising(start: int, step: int, k: int) -> int:
    """D^k (a)_k for start = D a and step = D: start (start+D) ... (start+(k-1)D)."""
    out = 1
    for i in range(k):
        out *= start + i * step
    return out


def pochhammer(a: Rational, k: int) -> Fraction:
    """Rising factorial a*(a+1)*...*(a+k-1); equals 1 when k == 0."""
    if k < 0:
        raise ValueError("pochhammer needs k >= 0")
    a = as_fraction(a)
    return Fraction(rising(a.numerator, a.denominator, k), a.denominator ** k)


def factorial(n: int) -> Fraction:
    return Fraction(math.factorial(n))


def clear_denominators(values: Sequence[Rational]) -> tuple[list[int], int]:
    """The values times L, the lcm of their denominators (1 if none), and L."""
    L = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (L // v.denominator) for v in values], L


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p"; malformed input, a zero denominator too, is a ValueError."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


class ParamVector:
    """Weight exponents (g_1, ..., g_d, g_{d+1}) for x^g * (1-|x|)^{g_{d+1}}."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Rational | str]):
        vals = tuple(as_fraction(v) for v in entries)
        if len(vals) < 2:
            raise ValueError("need at least two entries (d >= 1)")
        object.__setattr__(self, "entries", vals)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("ParamVector is immutable")

    @property
    def d(self) -> int:
        return len(self.entries) - 1

    @property
    def last(self) -> Fraction:
        return self.entries[-1]

    @property
    def total(self) -> Fraction:
        return sum(self.entries, Fraction(0))

    @property
    def is_integrable(self) -> bool:
        return all(g > -1 for g in self.entries)

    def singular_split(self) -> tuple[tuple[Fraction, ...], int]:
        """(tail, k): the entries before the trailing block of -1 entries, and
        the size k >= 1 of that block; an entry below -1, a -1 elsewhere, or
        no -1 at all is a ValueError."""
        if any(g < -1 for g in self.entries):
            raise ValueError("exponents below -1 are not supported")
        k = 0
        while k < len(self.entries) and self.entries[-1 - k] == -1:
            k += 1
        tail = self.entries[:len(self.entries) - k]
        if -1 in tail:
            raise ValueError("-1 entries must form a trailing block; permute the "
                             "coordinates so that they do")
        if not k:
            raise ValueError("a singular weight needs a trailing block of -1 entries")
        return tail, k

    def shifted(self, deltas: Sequence[Rational]) -> "ParamVector":
        if len(deltas) != len(self.entries):
            raise ValueError("shift has wrong length")
        return ParamVector([g + as_fraction(t) for g, t in zip(self.entries, deltas)])

    def with_values(self, assignments: Mapping[int, Rational]) -> "ParamVector":
        vals = list(self.entries)
        for i, v in assignments.items():
            vals[i] = as_fraction(v)
        return ParamVector(vals)

    @classmethod
    def parse(cls, text: str) -> "ParamVector":
        return cls([parse_rational(p) for p in text.split(",")])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ParamVector) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return "ParamVector(" + ",".join(map(str, self.entries)) + ")"

    def to_json(self) -> list[str]:
        return [str(g) for g in self.entries]


def face_params(gamma: ParamVector, zeroed: Iterable[int]) -> ParamVector:
    """Exponents of the weight restricted to the face where `zeroed` vanish:
    the surviving entries, in order, as in Polynomial.restrict."""
    zset = zero_set(zeroed, gamma.d)
    if not 0 < len(zset) <= gamma.d - 1:
        raise ValueError(f"bad face {sorted(zset)} for dimension {gamma.d}")
    return ParamVector([g for i, g in enumerate(gamma.entries) if i not in zset])


def zero_set(zeroed: Iterable[int], d: int) -> frozenset[int]:
    """The zeroed indices of a face of T^d, index d the hyperplane 1-|x| = 0;
    an entry that is not an int in 0..d, a bool too, is a ValueError."""
    zset = frozenset(zeroed)
    bad = [i for i in zset if type(i) is not int or not 0 <= i <= d]
    if bad:
        raise ValueError(f"bad face index {bad[0]!r} for dimension {d}")
    return zset
