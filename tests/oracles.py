"""Slow, independent reference paths used only by the tests.

The integrators deliberately avoid the Pochhammer-ratio formula under test:
the one-variable integral expands (1-t)^q binomially, and the simplex
integral reduces one variable at a time.  The other oracles are the plain
definitions that the library's fast kernels replace: apply the operator and
subtract, multiply and then integrate, and sum the monic basis formula one
Pochhammer symbol at a time.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from sobolex.bases import apply_operator, eigenvalue
from sobolex.errors import ZeroDenominator
from sobolex.moments import integral
from sobolex.polynomials import Polynomial, box_indices
from sobolex.scalars import binomial, format_rational, pochhammer


def interval_integral(p: int, q: int) -> Fraction:
    """Integral of t^p (1-t)^q over [0,1], by binomial expansion."""
    return sum((Fraction((-1) ** j) * comb(q, j)) / (p + j + 1)
               for j in range(q + 1))


def simplex_integral(exponents: tuple[int, ...]) -> Fraction:
    """Integral of x^(a_1..a_d) (1-|x|)^(a_{d+1}) over T^d, d = len-1.

    Reduction: substituting x_1 = t and rescaling the remaining variables by
    (1-t) splits off a one-variable Beta factor with a Jacobian (1-t)^{d-1}.
    """
    *a, b = exponents
    if not a:
        return Fraction(1)
    rest = sum(a[1:]) + b + len(a) - 1
    return interval_integral(a[0], rest) * simplex_integral(tuple(a[1:]) + (b,))


def oracle_normalized_moment(gamma: tuple[int, ...], a: tuple[int, ...]) -> Fraction:
    """Normalized moment for integer exponents, computed the slow way."""
    shifted = tuple(g + e for g, e in zip(gamma, a))
    return simplex_integral(shifted) / simplex_integral(gamma)


def oracle_eigencheck(gamma, f: Polynomial, n: int) -> bool:
    """L f == lambda_n f, by applying the operator's definition."""
    return (apply_operator(gamma, f) - eigenvalue(gamma, n) * f).is_zero


def oracle_inner_product(f: Polynomial, g: Polynomial, gamma) -> Fraction:
    """The pairing by forming the product polynomial and integrating it."""
    return integral(f * g, gamma)


def oracle_monomial_element(gamma, nu: tuple[int, ...]) -> Polynomial:
    """The monic basis formula, one Pochhammer symbol per box index."""
    d = gamma.d
    n = sum(nu)
    s = gamma.total + d
    den = pochhammer(s, 2 * n)
    if den == 0:
        raise ZeroDenominator(f"({format_rational(s)})_{2 * n} vanishes")
    top = [pochhammer(g + 1, k) for g, k in zip(gamma.entries[:-1], nu)]
    terms = {}
    for m in box_indices(nu):
        coef = Fraction((-1) ** (n + sum(m)))
        for i in range(d):
            low = pochhammer(gamma.entries[i] + 1, m[i])
            if low == 0:
                raise ZeroDenominator(
                    f"({format_rational(gamma.entries[i] + 1)})_{m[i]} vanishes")
            coef *= binomial(nu[i], m[i]) * top[i] / low
        coef *= pochhammer(s, n + sum(m)) / den
        terms[m] = coef
    return Polynomial(d, terms)
