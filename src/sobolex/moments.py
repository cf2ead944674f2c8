"""Exact normalized integration against simplex weights.

All integrals are Dirichlet-normalized: each value is the integral divided by
the total mass of its own base weight, which keeps every number rational for
rational exponents.  The closed form used here is

    (integral of x^a (1-|x|)^{a_{d+1}} dW_g) / (mass of W_g)
        = prod_i (g_i + 1)_{a_i} / (|g| + d + 1)_{|a|}.

Each weight gets one moment table.  Scaling every rising-factorial factor by
the common denominator D of the exponents makes the numerator
prod_i D^{a_i} (g_i + 1)_{a_i} and the denominator D^{|a|} (|g| + d + 1)_{|a|}
integers, both products of `scalars.rising`, so a table entry is an int keyed
by its integer exponent tuple, and the denominator depends on |a| only and
divides the one of every higher degree.  Pairings <f_i, g_j x^s> =
sum_a c_a sum_b d_b m(a+b+s) are computed a matrix at a time in integers over
that common denominator, without building any product polynomial, and
returned as int numerators over one denominator, so that a caller summing
several blocks rescales each by one int and builds one Fraction per entry; an
integral is the pairing with 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import add
from typing import Iterable

from .errors import NonIntegrableWeight
from .polynomials import Exponents, Polynomial
from .scalars import ParamVector, clear_denominators, rising


class MomentTable:
    """Integer moment numerators and per-degree denominators of one weight."""

    __slots__ = ("_starts", "_step", "_nums")

    def __init__(self, entries: tuple[Fraction, ...]):
        scaled, step = clear_denominators(entries)
        self._step = step
        # rising(start, D, j) is D^j (g_i+1)_j for start D (g_i+1), and the
        # denominator D^j (|g|+d+1)_j for the last start, D (|g|+d+1)
        self._starts = [g + step for g in scaled]
        self._starts.append(sum(scaled) + len(entries) * step)
        self._nums: dict[Exponents, int] = {}

    def numerator(self, a: Exponents) -> int:
        """Scaled numerator of x^a, for a of length d or d+1 (a missing last
        entry is a zero power of 1-|x|)."""
        num = self._nums.get(a)
        if num is None:
            num = self._nums[a] = prod(rising(start, self._step, e)
                                       for start, e in zip(self._starts, a))
        return num

    def denominator(self, degree: int) -> int:
        return rising(self._starts[-1], self._step, degree)

    def pairings(self, rows: list[Polynomial], cols: list[Polynomial],
                 shift: Exponents | None = None,
                 upper: bool = False) -> tuple[list[list[int]], int]:
        """The pairings of rows[i] with cols[j] times x^shift, as (nums, den):
        entry (i, j) is nums[i][j] / den.  With `upper` (cols is rows) only
        the entries j >= i are summed, the rest left 0."""
        rint = [p.scaled_to_integers() for p in rows]
        cint = rint if cols is rows else [p.scaled_to_integers() for p in cols]
        at: dict[Exponents, int] = {}
        for terms, _ in cint:
            for b in terms:
                at.setdefault(b, len(at))
        heads = [(b, sum(b)) for b in at]
        top = max((sum(a) for terms, _ in rint for a in terms), default=0) \
            + max((db for _, db in heads), default=0) + sum(shift or ())
        common = self.denominator(top)
        lift = [common // self.denominator(k) for k in range(top + 1)]
        numerator = self.numerator
        lifted: dict[Exponents, list[int]] = {}
        rden, cden = (lcm(*(q for _, q in ints)) for ints in (rint, cint))
        cvecs = [[(at[b], c * (cden // q)) for b, c in terms.items()] for terms, q in cint]
        out = []
        for i, (terms, q) in enumerate(rint):
            u = [0] * len(at)
            for a, c in terms.items():
                moments = lifted.get(a)
                if moments is None:
                    sa = tuple(map(add, a, shift)) if shift else a
                    da = sum(sa)
                    moments = lifted[a] = [numerator(tuple(map(add, sa, b))) * lift[da + db]
                                           for b, db in heads]
                u = [x + c * y for x, y in zip(u, moments)]
            scale, start = rden // q, i if upper else 0
            out.append([0] * start + [scale * sum(c * u[pos] for pos, c in vec)
                                      for vec in cvecs[start:]])
        return out, common * rden * cden


_TABLES: dict[tuple[Fraction, ...], MomentTable] = {}


def moment_table(gamma: ParamVector) -> MomentTable:
    """The moment table of an integrable weight, made on first use."""
    if not gamma.is_integrable:
        raise NonIntegrableWeight("weight exponents ("
                                  + ",".join(map(str, gamma.entries))
                                  + ") are not all > -1")
    table = _TABLES.get(gamma.entries)
    if table is None:
        table = _TABLES[gamma.entries] = MomentTable(gamma.entries)
    return table


def integral(f: Polynomial, gamma: ParamVector) -> Fraction:
    """Normalized integral of a polynomial against W_gamma over T^d."""
    return inner_product(f, Polynomial.constant(f.dim, 1), gamma)


def inner_product(f: Polynomial, g: Polynomial, gamma: ParamVector) -> Fraction:
    """Normalized L^2(W_gamma) pairing of two polynomials, without forming f*g."""
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    if f.dim != gamma.d:
        raise ValueError("dimension mismatch")
    ((num,),), den = moment_table(gamma).pairings([f], [g])
    return Fraction(num, den)


def face_inner_product(f: Polynomial, g: Polynomial, zeroed: Iterable[int],
                       face_gamma: ParamVector) -> Fraction:
    """Restrict both arguments to the face where the coordinates `zeroed`
    vanish (index d: 1-|x| = 0) and pair them in the face's own weight
    (`inner_product` refuses a weight of another dimension)."""
    zeroed = frozenset(zeroed)
    if len(zeroed) >= f.dim:
        raise ValueError("face must have dimension >= 1; use vertex_eval at points")
    return inner_product(f.restrict(zeroed), g.restrict(zeroed), face_gamma)


def vertex_eval(f: Polynomial, j: int) -> Fraction:
    """Evaluate at vertex e_j of T^d; e_0 is the origin."""
    if not 0 <= j <= f.dim:
        raise ValueError(f"vertex index {j} out of range")
    # the terms that survive at e_j: the constant for j = 0, else the pure
    # powers of x_{j-1}
    terms, den = f.scaled_to_integers()
    return Fraction(sum(c for e, c in terms.items() if sum(e) == (e[j - 1] if j else 0)), den)
