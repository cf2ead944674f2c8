"""Exact normalized integration against simplex weights.

All integrals are Dirichlet-normalized: each value is the integral divided by
the total mass of its own base weight, which keeps every number rational for
rational exponents.  The closed form used here is

    (integral of x^a (1-|x|)^{a_{d+1}} dW_g) / (mass of W_g)
        = prod_i (g_i + 1)_{a_i} / (|g| + d + 1)_{|a|}.

Each weight gets one moment table.  Scaling every rising-factorial factor by
the common denominator D of the exponents makes the numerator
prod_i D^{a_i} (g_i + 1)_{a_i} and the denominator D^{|a|} (|g| + d + 1)_{|a|}
integers, so a table entry is an int keyed by its integer exponent tuple, and
the denominator depends on |a| only.  An integral is then a sum of integer
numerators per total degree, with one Fraction per degree at the end.  The
pairing <f, g> = sum_a c_a sum_b d_b m(a+b) is evaluated the same way,
without building the product polynomial f*g.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add

from .errors import NonIntegrableWeight
from .polynomials import Exponents, FaceId, Polynomial
from .scalars import format_rational
from .weighted import ParamVector


class _MomentTable:
    """Integer moment numerators and per-degree denominators of one weight."""

    __slots__ = ("_starts", "_step", "_rows", "_nums")

    def __init__(self, entries: tuple[Fraction, ...]):
        step = lcm(*(g.denominator for g in entries))
        self._step = step
        # scaled rising factorials: row i holds D^j (g_i+1)_j, j = 0, 1, ...
        self._starts = [int((g + 1) * step) for g in entries]
        self._starts.append(int((sum(entries) + len(entries)) * step))
        self._rows = [[1] for _ in self._starts]
        self._nums: dict[Exponents, int] = {}

    def _rising(self, i: int, j: int) -> int:
        row = self._rows[i]
        while len(row) <= j:
            row.append(row[-1] * (self._starts[i] + self._step * (len(row) - 1)))
        return row[j]

    def numerator(self, a: Exponents) -> int:
        """Scaled numerator of x^a, for a of length d or d+1 (a missing last
        entry is a zero power of 1-|x|)."""
        num = self._nums.get(a)
        if num is None:
            num = 1
            for i, e in enumerate(a):
                if e:
                    num *= self._rising(i, e)
            self._nums[a] = num
        return num

    def denominator(self, degree: int) -> int:
        return self._rising(-1, degree)

    def combine(self, by_degree: dict[int, int], scale: int) -> Fraction:
        """sum_k by_degree[k] / (denominator(k) * scale)."""
        total = Fraction(0)
        for k, num in by_degree.items():
            if num:
                total += Fraction(num, self.denominator(k))
        return total / scale


_TABLES: dict[tuple[Fraction, ...], _MomentTable] = {}


def _table(gamma: ParamVector) -> _MomentTable:
    if not gamma.is_integrable:
        raise NonIntegrableWeight("weight exponents ("
                                  + ",".join(format_rational(g) for g in gamma.entries)
                                  + ") are not all > -1")
    table = _TABLES.get(gamma.entries)
    if table is None:
        table = _TABLES[gamma.entries] = _MomentTable(gamma.entries)
    return table


def _integer_terms(f: Polynomial) -> tuple[list[tuple[Exponents, int, int]], int]:
    """f's terms as (exponent, degree, integer coefficient) over the common
    denominator, which is returned alongside."""
    terms, scale = f.scaled_to_integers()
    return [(exp, sum(exp), c) for exp, c in terms.items()], scale


def normalized_moment(gamma: ParamVector, a: tuple[int, ...]) -> Fraction:
    """Normalized moment of x^(a_1..a_d) (1-|x|)^(a_{d+1}) against W_gamma."""
    table = _table(gamma)
    if len(a) != gamma.d + 1 or any(e < 0 for e in a):
        raise ValueError(f"bad moment index {a}")
    a = tuple(int(e) for e in a)
    return Fraction(table.numerator(a), table.denominator(sum(a)))


def integral(f: Polynomial, gamma: ParamVector) -> Fraction:
    """Normalized integral of a polynomial against W_gamma over T^d."""
    if f.dim != gamma.d:
        raise ValueError("dimension mismatch")
    table = _table(gamma)
    terms, scale = _integer_terms(f)
    by_degree: dict[int, int] = {}
    for exp, deg, c in terms:
        by_degree[deg] = by_degree.get(deg, 0) + c * table.numerator(exp)
    return table.combine(by_degree, scale)


def inner_product(f: Polynomial, g: Polynomial, gamma: ParamVector) -> Fraction:
    """Normalized L^2(W_gamma) pairing of two polynomials, sum_a c_a sum_b d_b
    m(a+b), without forming f*g."""
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    if f.dim != gamma.d:
        raise ValueError("dimension mismatch")
    table = _table(gamma)
    fterms, fscale = _integer_terms(f)
    gterms, gscale = _integer_terms(g)
    numerator = table.numerator
    by_degree: dict[int, int] = {}
    for a, adeg, c in fterms:
        for b, bdeg, e in gterms:
            deg = adeg + bdeg
            by_degree[deg] = by_degree.get(deg, 0) + c * e * numerator(tuple(map(add, a, b)))
    return table.combine(by_degree, fscale * gscale)


def face_inner_product(f: Polynomial, g: Polynomial, face: FaceId,
                       face_gamma: ParamVector) -> Fraction:
    """Restrict both arguments to a face and pair them in the face's own weight."""
    if face.dim < 1:
        raise ValueError("face must have dimension >= 1; use vertex_eval at points")
    if face_gamma.d != face.dim:
        raise ValueError("face weight has wrong dimension")
    return inner_product(face.restrict(f), face.restrict(g), face_gamma)


def vertex_eval(f: Polynomial, j: int) -> Fraction:
    """Evaluate at vertex e_j of T^d; e_0 is the origin."""
    if not 0 <= j <= f.dim:
        raise ValueError(f"vertex index {j} out of range")
    point = [Fraction(1) if i == j - 1 else Fraction(0) for i in range(f.dim)]
    return f.evaluate(point)
