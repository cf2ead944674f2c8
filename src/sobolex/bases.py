"""Constructors for the classical polynomial families on the simplex, and the
operator whose eigenfunctions they are.

The Rodrigues and permuted families are closed-form Leibniz sums.  Write
y_j = x_j for j < d and y_d = 1-|x|.  A permuted element lists d of the d+1
coordinates in slots (coordinate o_s in slot s) and leaves out one index c;
the Rodrigues element is the order (0..d-1) with c = d.  The slot operator of
slot s sends y_{o_s} to 1, y_c to -1 and every other y to 0, so applying
slot s nu_s times to the shifted weight and dividing the weight back out gives

    U_nu = sum_{m <= nu} (-1)^{|m|} (g_c+|nu|-|m|+1)_{|m|}
               prod_s C(nu_s, m_s) (g_{o_s}+m_s+1)_{nu_s-m_s}
               * prod_s y_{o_s}^{m_s} * y_c^{|nu|-|m|}.

Every term carries Pochhammer symbols of total length |nu|, so with the
parameters scaled by D, the common denominator of the g_i, the sum runs in
integers and is divided by D^{|nu|} once.  It is built as a polynomial in the
d+1 slot coordinates (slot d holding y_c) and pulled back to x by the map
slot s -> y_{o_s}, slot d -> y_c (`Polynomial.pullback`).  That map is a
vertex permutation of T^d, so a permuted element is the Rodrigues element of
the permuted weight (g_{o_0}, ..., g_{o_{d-1}}, g_c) pulled back by the order.
Both families reach the sum through one kernel, `_leibniz_element`, which
alone refuses a multi-index of the wrong length or with a negative entry.

The monic ("monomial") element sums over the same box, with n = |nu| and
s = |g|+d:

    V_nu = sum_{m <= nu} (-1)^{n+|m|} (s+n)_{|m|} / (s+n)_n
               prod_i C(nu_i, m_i) (g_i+m_i+1)_{nu_i-m_i} * x^m.

It shares the slot rows (at the identity order) and differs only in the
level factor and the term x^m; in integers it is divided by D^n (s+n)_n,
which vanishes exactly when lambda_m = lambda_n for some m < n.

`eigencheck` does not apply the operator to a polynomial.  On monomials the
operator is upper triangular,

    L x^a = -|a|(|a|+|g|+d) x^a + sum_i a_i (a_i + g_i) x^{a-e_i},

so each coefficient of L f - lambda_n f is read off from at most d+1
coefficients of f, in integers over the common denominator of f and g.
The tests check it against the operator applied by its definition.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import partial
from typing import Callable, Iterator, Sequence

from .errors import ZeroDenominator
from .polynomials import Exponents, Polynomial, monomials_of_degree
from .scalars import (ParamVector, Rational, as_fraction, clear_denominators, factorial,
                      is_index, pochhammer, rising)


class Basis:
    """A labeled list of polynomials keyed by multi-index (or block tag)."""

    def __init__(self, params: ParamVector, label: str,
                 elements: list[tuple[tuple, Polynomial]] | None = None):
        self.params = params
        self.label = label
        self.elements = [] if elements is None else elements

    def polys(self) -> list[Polynomial]:
        return [p for _, p in self.elements]

    def __len__(self) -> int:
        return len(self.elements)

    def to_json(self) -> dict:
        return {
            "family": self.label,
            "d": self.params.d,
            "gamma": self.params.to_json(),
            "elements": [{"key": _json_key(key), "poly": poly.to_json()}
                         for key, poly in self.elements],
        }


def _json_key(key: tuple) -> list:
    return [list(k) if isinstance(k, tuple) else k for k in key]


# -- Rodrigues-type constructions ------------------------------------------

def rodrigues_element(gamma: ParamVector, nu: Exponents) -> Polynomial:
    """x^{-g} (1-|x|)^{-g_{d+1}} d^nu [x^{g+nu} (1-|x|)^{g_{d+1}+|nu|}]."""
    return _leibniz_element(gamma, tuple(range(gamma.d)), gamma.d, nu)


def permuted_element(gamma: ParamVector, order: tuple[int, ...], nu: Exponents) -> Polynomial:
    """Rodrigues construction along a rearranged coordinate list.

    `order` lists d distinct indices from {0..d}; index d stands for the
    dependent coordinate 1-|x|.  The omitted index c carries exponent |nu|,
    and the slot operators are d/dx_s when c == d, else -d/dx_c for the slot
    holding 1-|x| and d/dx_s - d/dx_c otherwise.
    """
    d = gamma.d
    if len(order) != d or len(set(order)) != d or not all(is_index(o, 0, d) for o in order):
        raise ValueError(f"bad coordinate order {order}")
    (excluded,) = set(range(d + 1)) - set(order)
    return _leibniz_element(gamma, order, excluded, nu)


def _box_terms(scaled: list[int], D: int, order: Sequence[int], nu: Exponents,
               level: list[int]) -> Iterator[tuple[Exponents, int]]:
    """The nonzero (m, level[|m|] prod_s C(nu_s, m_s) D^{nu_s-m_s}
    (g_{o_s}+m_s+1)_{nu_s-m_s}) over the box m <= nu, where scaled[j] = D g_j
    and slot s holds coordinate o_s of `order`."""
    # slot s: y_{o_s} differentiated nu_s - m_s times, in C(nu_s, m_s) ways
    rows = [[math.comb(k, m) * rising(scaled[o] + (m + 1) * D, D, k - m) for m in range(k + 1)]
            for o, k in zip(order, nu)]
    for m in itertools.product(*(range(k + 1) for k in nu)):
        coef = level[sum(m)]
        for row, ms in zip(rows, m):
            coef *= row[ms]
        if coef:
            yield m, coef


def _degree(gamma: ParamVector, nu: Exponents) -> int:
    """|nu|, for a multi-index nu of gamma's dimension d; any other nu is a
    ValueError.  The one index guard of every family indexed by nu."""
    if len(nu) != gamma.d or not all(is_index(k, 0) for k in nu):
        raise ValueError(f"bad multi-index {nu}")
    return sum(nu)


def _leibniz_element(gamma: ParamVector, order: tuple[int, ...], c: int,
                     nu: Exponents) -> Polynomial:
    """The Leibniz sum of the module docstring, in integers times D^{|nu|}:
    a polynomial in the d+1 slot coordinates (slot d holds y_c), pulled back
    by (*order, c)."""
    n = _degree(gamma, nu)
    scaled, D = clear_denominators(gamma)
    # y_c differentiated by the remaining |m| slot operators, each giving -1
    level = [(-1) ** k * rising(scaled[c] + (n - k + 1) * D, D, k) for k in range(n + 1)]
    slots = {m + (n - sum(m),): coef for m, coef in _box_terms(scaled, D, order, nu, level)}
    return Polynomial._from_ints(gamma.d + 1, slots, D ** n).pullback((*order, c), gamma.d)


def _family(gamma: ParamVector, label: str, n: int,
            element: Callable[[Exponents], Polynomial]) -> Basis:
    """The elements of degree n of one family, keyed by their multi-index."""
    return Basis(gamma, label, [(nu, element(nu)) for nu in monomials_of_degree(gamma.d, n)])


def rodrigues_basis(gamma: ParamVector, n: int) -> Basis:
    return _family(gamma, "rodrigue", n, partial(rodrigues_element, gamma))


def permuted_basis(gamma: ParamVector, order: tuple[int, ...], n: int) -> Basis:
    label = "permuted[" + ",".join(str(s) for s in order) + "]"
    return _family(gamma, label, n, partial(permuted_element, gamma, order))


# -- monic (monomial) basis -------------------------------------------------

def monomial_element(gamma: ParamVector, nu: Exponents) -> Polynomial:
    """The monic eigenfunction x^nu + (lower degree) of eigenvalue lambda_n."""
    d, n = gamma.d, _degree(gamma, nu)
    scaled, D = clear_denominators(gamma)
    top = sum(scaled) + (d + n) * D  # D (s+n)
    den = rising(top, D, n)
    if not den:  # lambda_m = lambda_n for m = -(s+n) < n
        m = -(gamma.total + d + n)
        raise ZeroDenominator(f"degrees {m} and {n} share the eigenvalue {eigenvalue(gamma, n)}")
    sign = -1 if den < 0 else 1  # _from_ints needs a positive denominator
    level = [sign * (-1) ** (n + k) * rising(top, D, k) for k in range(n + 1)]
    return Polynomial._from_ints(d, dict(_box_terms(scaled, D, range(d), nu, level)), sign * den)


def monomial_basis(gamma: ParamVector, n: int) -> Basis:
    return _family(gamma, "monomial", n, partial(monomial_element, gamma))


def biorthogonal_constant(gamma: ParamVector, nu: Exponents) -> Fraction:
    """The Dirichlet-normalized pairing of the Rodrigues and monic elements
    of index nu under an integrable weight (by integration by parts):

        <P_nu, V_nu> = (-1)^{|nu|} nu! prod_i (g_i+1)_{nu_i} (g_{d+1}+1)_{|nu|}
                        / (|g|+d+1)_{2|nu|}

    The sign alternates with the degree because the Rodrigues construction
    here carries no (-1)^{|nu|} prefactor; off-diagonal pairings vanish.
    """
    d, n = gamma.d, _degree(gamma, nu)
    value = Fraction((-1) ** n * math.prod(map(math.factorial, nu)))
    for g, k in zip(gamma.integrable()[:-1], nu):
        value *= pochhammer(g + 1, k)
    value *= pochhammer(gamma.last + 1, n)
    return value / pochhammer(gamma.total + d + 1, 2 * n)


# -- the second-order operator ----------------------------------------------

def eigenvalue(gamma: ParamVector, n: int) -> Fraction:
    if not is_index(n, 0):
        raise ValueError(f"bad degree {n!r}")
    return -n * (n + gamma.total + gamma.d)


def eigencheck(gamma: ParamVector, f: Polynomial, n: int) -> bool:
    """True iff L f == -n(n+|g|+d) f exactly.

    With f = sum_a c_a x^a and shift = |g|+d, the coefficient of x^b in
    L f - lambda_n f is

        (n-|b|)(n+|b|+shift) c_b + sum_i (b_i+1)(b_i+1+g_i) c_{b+e_i}.

    One pass over the c_a scatters each one's share into the residuals:
    its diagonal term to x^a, and for each a_i > 0 its term to x^{a-e_i}.
    Every factor is scaled to an integer: coefficients by their common
    denominator, parameters by D, the common denominator of the g_i.
    """
    if gamma.d != f.dim or not is_index(n, 0):
        raise ValueError(f"eigencheck needs f in {gamma.d} variables and an int degree >= 0")
    scaled, D = clear_denominators(gamma)                               # D g_i
    lows = [s + D for s in scaled[:-1]]                                 # (g_i+1) D
    top = sum(scaled) + (n + f.dim) * D                                 # (n+shift) D
    coef, _ = f.scaled_to_integers()
    residual = dict.fromkeys(coef, 0)
    for a, c in coef.items():
        k = sum(a)
        residual[a] += c * (n - k) * (top + k * D)
        for i, ai in enumerate(a):
            if ai:
                b = a[:i] + (ai - 1,) + a[i + 1:]
                residual[b] = residual.get(b, 0) + c * ai * ((ai - 1) * D + lows[i])
    return not any(residual.values())


# -- one-variable Jacobi families --------------------------------------------

def jacobi_shifted(n: int, alpha: Rational, beta: Rational) -> Polynomial:
    """Jacobi polynomial on [0,1], orthogonal against (1-x)^alpha x^beta,
    normalized as (1-x)^{-a} x^{-b} d^n/dx^n [(1-x)^{n+a} x^{n+b}]."""
    return rodrigues_element(ParamVector([beta, alpha]), (n,))


def jacobi_p(n: int, alpha: Rational, beta: Rational) -> Polynomial:
    """Classical Jacobi polynomial on [-1,1] with the standard normalization."""
    shifted = jacobi_shifted(n, alpha, beta)
    half_up = Polynomial(1, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    return shifted.substitute(0, half_up) * (Fraction((-1) ** n) / factorial(n))


def jacobi_norm(n: int, alpha: Rational, beta: Rational) -> Fraction:
    """Normalized square norm of jacobi_p(n):
    (a+1)_n (b+1)_n (a+b+n+1) / (n! (a+b+2)_n (a+b+2n+1))."""
    b, a = ParamVector([beta, alpha]).integrable()
    num = pochhammer(a + 1, n) * pochhammer(b + 1, n) * (a + b + n + 1)
    den = factorial(n) * pochhammer(a + b + 2, n) * (a + b + 2 * n + 1)
    return num / den


def jacobi_negative_one_beta(n: int, beta: Rational) -> Polynomial:
    """The alpha = -1 family on [-1,1]: P_0 = 1 and, for n >= 1,
    P_n = ((n+beta)/n) * (x-1)/2 * P_{n-1}^{(1,beta)}."""
    if not is_index(n, 0):
        raise ValueError(f"bad degree {n!r}")
    b = as_fraction(beta)
    if n == 0:
        return Polynomial.constant(1, 1)
    x = Polynomial.variable(1, 0)
    return (x - 1) * ((b + n) / (2 * n)) * jacobi_p(n - 1, 1, b)


def jacobi_negative_one_one(n: int, lam1: Rational = 1, lam2: Rational = 1) -> Polynomial:
    """The alpha = beta = -1 family on [-1,1]: P_0 = 1, P_1 = x + mu with
    mu = (lam2-lam1)/(lam1+lam2), and P_n = (x^2-1)/4 * P_{n-2}^{(1,1)}."""
    if not is_index(n, 0):
        raise ValueError(f"bad degree {n!r}")
    l1, l2 = as_fraction(lam1), as_fraction(lam2)
    x = Polynomial.variable(1, 0)
    if n == 0:
        return Polynomial.constant(1, 1)
    if n == 1:
        if l1 + l2 == 0:
            raise ZeroDenominator("lam1 + lam2 must be nonzero")
        return x + (l2 - l1) / (l1 + l2)
    return (x * x - 1) * Fraction(1, 4) * jacobi_p(n - 2, 1, 1)


def all_orders(d: int) -> list[tuple[int, ...]]:
    """Every ordering of d indices out of {0..d}, lexicographically."""
    return list(itertools.permutations(range(d + 1), d))
