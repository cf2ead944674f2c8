"""Exact rational scalars: rising factorials, factorials, parsing helpers.

Every scalar the package hands out is a ``fractions.Fraction``; polynomial
coefficients are stored as ints over a common denominator (see
`polynomials`) and become Fractions when read; `clear_denominators` turns a
list of rationals into ints over the lcm of their denominators for the
integer kernels.  `rising` is the one integer rising factorial: the moment
table, the Leibniz sums of `bases` and `pochhammer` all read it.  Nothing
here (or anywhere else) rounds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

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
