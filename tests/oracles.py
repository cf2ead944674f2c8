"""Slow, independent reference paths used only by the tests.

The integrators deliberately avoid the Pochhammer-ratio formula under test:
the one-variable integral expands (1-t)^q binomially, and the simplex
integral reduces one variable at a time.  The other oracles are the plain
definitions that the library's fast kernels replace: apply the operator and
subtract, multiply and then integrate, and solve for the monic element
degree by degree on the operator, apart from its closed form.
`oracle_value` is every bilinear form written out term by term, pairing
each pair of polynomials on its own; the
`oracle_named_*_value` functions are the paper's four d = 2 forms.
`apply_operator` is the second-order operator applied by its definition, and
`jacobi_ode_residual` the Jacobi ODE on [-1,1], which the library checks as
the d = 1 operator after x = 2u-1.
The two construction oracles build the Rodrigues and permuted elements from
their definitions with `sobolex.weighted.WeightedForm`, the closed class of sums
c * x^alpha * (1-|x|)^beta with rational exponents: shift the weight,
differentiate term by term, divide the weight back out.
`FractionPolynomial` is the polynomial arithmetic that `Polynomial`'s integer
form replaced: one reduced Fraction per coefficient, summed term by term.
`oracle_solve_combination` is the plain Fraction Gauss-Jordan span solve that
the fraction-free elimination of `sobolex.linalg` replaced, and
`oracle_determinant` the plain Fraction determinant that checks the
elimination's determinants and leading principal minors.  `oracle_positive`
is the positivity test of a Sobolev form's coefficients, written out apart
from the constructor that applies it.  `constrained_indices` builds the
multi-indices of a face block from the free axes up, the reference for the
keys of `sobolex.spaces.h_space`, which filters all indices of the degree.
`binomial`, `evaluate` (a polynomial's value at a point) and
`normalized_moment` (one moment read off the library's moment sum) are read
only by the tests, so they live here and not in the package.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import reduce
from math import comb, prod

from sobolex import products as P
from sobolex.bases import eigenvalue
from sobolex.errors import ZeroDenominator
from sobolex.moments import pairings, vertex_eval
from sobolex.polynomials import Polynomial, complement_power, graded_lex_key, monomials_of_degree
from sobolex.scalars import ParamVector
from sobolex.weighted import WeightedForm


def binomial(n: int, k: int) -> Fraction:
    """Binomial coefficient with the convention binom(n, k) = 0 for k > n;
    a negative argument is a ValueError."""
    return Fraction(comb(n, k))


def evaluate(f: Polynomial, point) -> Fraction:
    """The value of f at `point`, summed term by term in Fractions."""
    if len(point) != f.dim:
        raise ValueError("point has wrong dimension")
    return sum((c * prod(Fraction(v) ** e for v, e in zip(point, exp))
                for exp, c in f.items()), Fraction(0))


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


def normalized_moment(gamma: ParamVector, a: tuple[int, ...]) -> Fraction:
    """Normalized moment of x^(a_1..a_d) (1-|x|)^(a_{d+1}) against W_gamma,
    read off the library's moment sum: x^(a_1..a_d) paired with
    (1-|x|)^(a_{d+1})."""
    if len(a) != gamma.d + 1 or any(type(e) is not int or e < 0 for e in a):
        raise ValueError(f"bad moment index {a}")
    ((num,),), den = pairings(gamma, [Polynomial.monomial(gamma.d, a[:-1])],
                              [complement_power(gamma.d, a[-1])])
    return Fraction(num, den)


def oracle_normalized_moment(gamma: tuple[int, ...], a: tuple[int, ...]) -> Fraction:
    """Normalized moment for integer exponents, computed the slow way."""
    shifted = tuple(g + e for g, e in zip(gamma, a))
    return simplex_integral(shifted) / simplex_integral(gamma)


def constrained_indices(dim: int, degree: int, zero_axes) -> list[tuple[int, ...]]:
    """Degree-`degree` multi-indices whose entries vanish on zero_axes
    (axes outside 0..dim-1 are ignored), graded-lex sorted."""
    zset = set(zero_axes)
    free = [i for i in range(dim) if i not in zset]
    out = []
    for part in monomials_of_degree(len(free), degree):
        exp = [0] * dim
        for axis, e in zip(free, part):
            exp[axis] = e
        out.append(tuple(exp))
    return sorted(out, key=graded_lex_key)


def apply_operator(gamma: ParamVector, f: Polynomial) -> Polynomial:
    """Image of f under the simplex Jacobi operator

        sum_i x_i(1-x_i) d_i^2 f - 2 sum_{i<j} x_i x_j d_i d_j f
            + sum_i (g_i + 1 - (|g|+d+1) x_i) d_i f.

    Polynomial in the parameters, so entries equal to -1 are allowed.
    """
    d = f.dim
    if gamma.d != d:
        raise ValueError("dimension mismatch")
    s = sum(gamma) + d + 1
    out = Polynomial(d)
    firsts = [f.partial(i) for i in range(d)]
    for i in range(d):
        xi = Polynomial.variable(d, i)
        out = out + xi * (1 - xi) * firsts[i].partial(i)
        out = out + (gamma[i] + 1 - s * xi) * firsts[i]
        for j in range(i + 1, d):
            xj = Polynomial.variable(d, j)
            out = out - 2 * xi * xj * firsts[i].partial(j)
    return out


def jacobi_ode_residual(f: Polynomial, n: int, alpha, beta) -> Polynomial:
    """(1-x^2) f'' + [b - a - (a+b+2)x] f' + n(a+b+n+1) f, on [-1,1]."""
    a, b = Fraction(alpha), Fraction(beta)
    x = Polynomial.variable(1, 0)
    fp = f.partial(0)
    return ((1 - x * x) * fp.partial(0)
            + (b - a - (a + b + 2) * x) * fp
            + n * (a + b + n + 1) * f)


def oracle_eigencheck(gamma, f: Polynomial, n: int) -> bool:
    """L f == lambda_n f, by applying the operator's definition."""
    return (apply_operator(gamma, f) - eigenvalue(gamma, n) * f).is_zero


def oracle_integral(f: Polynomial, gamma) -> Fraction:
    """The integral as a sum of single normalized moments, one per term."""
    return sum((c * normalized_moment(gamma, e + (0,)) for e, c in f.items()), Fraction(0))


def oracle_inner_product(f: Polynomial, g: Polynomial, gamma) -> Fraction:
    """The pairing by forming the product polynomial and integrating it."""
    return oracle_integral(f * g, gamma)


def oracle_monomial_element(gamma, nu: tuple[int, ...]) -> Polynomial:
    """x^nu + (lower degree) with eigenvalue lambda_n, by back substitution on
    the operator: L x^a is lambda_{|a|} x^a plus lower degree, so from the top
    degree down each x^b of degree k < n takes the c_b that solves
    (lambda_k - lambda_n) c_b = -[x^b] (L - lambda_n)(the terms above k),
    and there is none to take where lambda_k = lambda_n."""
    d, n = gamma.d, sum(nu)
    lam = [-k * (k + sum(gamma) + d) for k in range(n + 1)]
    v = Polynomial.monomial(d, nu)
    for k in reversed(range(n)):
        if lam[k] == lam[n]:
            raise ZeroDenominator(f"degrees {k} and {n} share the eigenvalue {lam[n]}")
        residual = apply_operator(gamma, v) - lam[n] * v
        v = v + Polynomial(d, {b: residual.coefficient(b) / (lam[n] - lam[k])
                               for b in monomials_of_degree(d, k)})
    return v


# -- polynomials as Fraction dicts -------------------------------------------

class FractionPolynomial:
    """A polynomial as a dict exponent tuple -> nonzero Fraction.

    Restriction substitutes the face's coordinates (0, or 1 minus the other
    survivors for the hyperplane), and a pullback substitutes 0, a variable
    or 1 - |x| for each variable, instead of expanding cached powers of
    1 - |x|; everything else is the term-by-term definition.
    """

    def __init__(self, dim: int, terms=()):
        acc: dict[tuple[int, ...], Fraction] = {}
        for exp, coef in (terms.items() if isinstance(terms, dict) else terms):
            acc[tuple(exp)] = acc.get(tuple(exp), Fraction(0)) + Fraction(coef)
        self.dim = dim
        self.terms = {e: c for e, c in acc.items() if c}

    @classmethod
    def constant(cls, dim: int, value) -> "FractionPolynomial":
        return cls(dim, {(0,) * dim: value})

    def __add__(self, other) -> "FractionPolynomial":
        if not isinstance(other, FractionPolynomial):
            other = FractionPolynomial.constant(self.dim, other)
        return FractionPolynomial(self.dim, [*self.terms.items(), *other.terms.items()])

    __radd__ = __add__

    def __neg__(self) -> "FractionPolynomial":
        return self * -1

    def __sub__(self, other) -> "FractionPolynomial":
        return self + (-other)

    def __rsub__(self, other) -> "FractionPolynomial":
        return FractionPolynomial.constant(self.dim, other) + (-self)

    def __mul__(self, other) -> "FractionPolynomial":
        if not isinstance(other, FractionPolynomial):
            return FractionPolynomial(self.dim, {e: c * other for e, c in self.terms.items()})
        return FractionPolynomial(self.dim, [
            (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items() for e2, c2 in other.terms.items()])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "FractionPolynomial":
        out = FractionPolynomial.constant(self.dim, 1)
        for _ in range(n):
            out = out * self
        return out

    def partial(self, axis: int) -> "FractionPolynomial":
        return FractionPolynomial(self.dim, [
            (e[:axis] + (e[axis] - 1,) + e[axis + 1:], c * e[axis])
            for e, c in self.terms.items() if e[axis]])

    def evaluate(self, point) -> Fraction:
        total = Fraction(0)
        for exp, coef in self.terms.items():
            for v, e in zip(point, exp):
                coef *= Fraction(v) ** e
            total += coef
        return total

    def substitute(self, axis: int, replacement: "FractionPolynomial") -> "FractionPolynomial":
        out = FractionPolynomial(self.dim)
        for exp, coef in self.terms.items():
            rest = FractionPolynomial(self.dim, {exp[:axis] + (0,) + exp[axis + 1:]: coef})
            out = out + rest * replacement ** exp[axis]
        return out

    def pullback(self, targets, dim=None) -> "FractionPolynomial":
        dim = self.dim if dim is None else dim
        coords = [FractionPolynomial(dim, {tuple(int(j == i) for j in range(dim)): 1})
                  for i in range(dim)]
        coords.append(1 - sum(coords, FractionPolynomial(dim)))
        out = FractionPolynomial(dim)
        for exp, coef in self.terms.items():
            term = FractionPolynomial.constant(dim, coef)
            for t, e in zip(targets, exp):
                term = term * (FractionPolynomial(dim) if t is None else coords[t]) ** e
            out = out + term
        return out

    def restrict(self, zeroed) -> "FractionPolynomial":
        d = self.dim
        zset = frozenset(zeroed)
        survivors = [i for i in range(d) if i not in zset]
        designated = survivors[-1] if d in zset else None
        keep = [i for i in survivors if i != designated]
        rdim = len(keep)
        one_minus = FractionPolynomial(rdim, [((0,) * rdim, 1)] + [
            (tuple(int(j == i) for j in range(rdim)), -1) for i in range(rdim)])
        out = FractionPolynomial(rdim)
        for exp, coef in self.terms.items():
            if any(exp[i] for i in zset if i < d):
                continue
            term = FractionPolynomial(rdim, {tuple(exp[i] for i in keep): coef})
            if designated is not None:
                term = term * one_minus ** exp[designated]
            out = out + term
        return out

    def coefficient(self, exp) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    def to_json(self) -> dict:
        return {"d": self.dim,
                "terms": [{"exp": list(e), "coef": str(c)}
                          for e, c in sorted(self.terms.items(),
                                             key=lambda t: (sum(t[0]), t[0]))]}


# -- Rodrigues and permuted elements by differentiating the weight -------------

def oracle_rodrigues_element(gamma: ParamVector, nu: tuple[int, ...]) -> Polynomial:
    """Differentiate the nu-shifted weight and divide the weight back out."""
    d = gamma.d
    n = sum(nu)
    alpha = [g + k for g, k in zip(gamma[:-1], nu)]
    form = WeightedForm.single(d, 1, alpha, gamma[-1] + n)
    for axis, times in enumerate(nu):
        for _ in range(times):
            form = form.derivative(axis)
    return form.divide_by_weight(gamma)


def oracle_permuted_element(gamma: ParamVector, order: tuple[int, ...],
                            nu: tuple[int, ...]) -> Polynomial:
    """Shift the weight, apply each slot's directional derivative nu_s times
    (d/dx_s when the omitted index c is d, else -d/dx_c for the slot holding
    1-|x| and d/dx_s - d/dx_c otherwise) and divide the weight back out."""
    d = gamma.d
    (excluded,) = set(range(d + 1)) - set(order)
    n = sum(nu)
    shift = [Fraction(0)] * (d + 1)
    for slot, s in enumerate(order):
        shift[s] += nu[slot]
    shift[excluded] += n
    exps = [g + s for g, s in zip(gamma, shift)]
    form = WeightedForm.single(d, 1, exps[:-1], exps[-1])
    for slot, s in enumerate(order):
        if excluded == d:
            op = [(s, 1)]
        elif s == d:
            op = [(excluded, -1)]
        else:
            op = [(s, 1), (excluded, -1)]
        for _ in range(nu[slot]):
            form = form.directional(op)
    return form.divide_by_weight(gamma)


# -- bilinear forms, each pair on its own --------------------------------------

def _face_pair(f: Polynomial, g: Polynomial, zeroed, weight) -> Fraction:
    """f and g restricted to the face where `zeroed` vanish, paired in `weight`."""
    return oracle_inner_product(f.restrict(zeroed), g.restrict(zeroed), weight)


def _singular_k1(p, f, g):
    d = p.dim
    grad = Polynomial(d)
    for i in range(d):
        grad = grad + Polynomial.variable(d, i) * f.partial(i) * g.partial(i)
    total = oracle_integral(grad, ParamVector(p.tail + (Fraction(0),)))
    if p.lam:
        if d == 1:
            total += p.lam * vertex_eval(f, 1) * vertex_eval(g, 1)
        else:
            total += p.lam * _face_pair(f, g, {d}, ParamVector(p.tail))
    return total


def _singular_mid(p, f, g):
    d, k = p.dim, p.k
    mk = list(range(d - k + 1, d))
    total = oracle_inner_product(
        reduce(Polynomial.partial, mk, f), reduce(Polynomial.partial, mk, g),
        ParamVector(p.tail + (Fraction(0),) * (k - 1) + (Fraction(k - 2),)))
    for i in range(1, k - 1):
        for subset in itertools.combinations(mk, i):
            lam = p.lam_face.get(frozenset(subset), Fraction(1))
            face = set(mk) - set(subset)
            fp = ParamVector(p.tail + (Fraction(0),) * i + (Fraction(i - 1),))
            total += lam * _face_pair(reduce(Polynomial.partial, subset, f),
                                      reduce(Polynomial.partial, subset, g), face, fp)
    fd = d - len(mk)
    grad = Polynomial(fd)
    for i in range(d - k + 1):
        grad = grad + p.lam_axis[i] * Polynomial.variable(fd, i) \
            * f.partial(i).restrict(mk) * g.partial(i).restrict(mk)
    total += oracle_integral(grad, ParamVector(p.tail + (Fraction(0),)))
    if k == d:
        total += p.lam * vertex_eval(f, 1) * vertex_eval(g, 1)
    else:
        total += p.lam * _face_pair(f, g, set(mk) | {d}, ParamVector(p.tail))
    return total


def _singular_full(p, f, g):
    d = p.dim
    axes = list(range(d))
    total = oracle_inner_product(reduce(Polynomial.partial, axes, f),
                                 reduce(Polynomial.partial, axes, g),
                                 ParamVector((Fraction(0),) * d + (Fraction(d - 1),)))
    for i in range(1, d):
        for subset in itertools.combinations(axes, i):
            lam = p.lam_face.get(frozenset(subset), Fraction(1))
            face = set(axes) - set(subset)
            fp = ParamVector((Fraction(0),) * i + (Fraction(i - 1),))
            total += lam * _face_pair(reduce(Polynomial.partial, subset, f),
                                      reduce(Polynomial.partial, subset, g), face, fp)
    for j in range(d + 1):
        total += p.lam_vertex[j] * vertex_eval(f, j) * vertex_eval(g, j)
    return total


# -- the one-variable Sobolev forms on [-1,1], as the reference for the d = 1
# forms on T^1 = [0,1] ----------------------------------------------------------

def to_unit_interval(h: Polynomial) -> Polynomial:
    """h on [-1,1] pulled back to [0,1] by x = 2u-1."""
    return h.substitute(0, Polynomial(1, {(0,): Fraction(-1), (1,): Fraction(2)}))


def _interval_derivatives(f: Polynomial, g: Polynomial, weight) -> Fraction:
    return oracle_integral(to_unit_interval(f.partial(0) * g.partial(0)), ParamVector(weight))


def oracle_jacobi_beta_value(beta, lam, f: Polynomial, g: Polynomial) -> Fraction:
    """lam f(1)g(1) + normalized integral of (1+x)^{beta+1} f'g' over [-1,1]."""
    return lam * evaluate(f, [1]) * evaluate(g, [1]) + _interval_derivatives(f, g, [beta + 1, 0])


def oracle_jacobi_both_value(lam1, lam2, f: Polynomial, g: Polynomial) -> Fraction:
    """lam1 f(1)g(1) + lam2 f(-1)g(-1) + normalized integral of f'g' over [-1,1]."""
    return lam1 * evaluate(f, [1]) * evaluate(g, [1]) \
        + lam2 * evaluate(f, [-1]) * evaluate(g, [-1]) + _interval_derivatives(f, g, [0, 0])


# -- the paper's d = 2 forms, as the reference for their term lists in
# `sobolex.suites` ---------------------------------------------------------------

def _vertex_pair(f: Polynomial, g: Polynomial, j: int) -> Fraction:
    return vertex_eval(f, j) * vertex_eval(g, j)


def oracle_named_k1_value(a, b, lam1, f: Polynomial, g: Polynomial) -> Fraction:
    """Exponents (a, b, -1): normalized integral of x f_x g_x + y f_y g_y
    against (a, b, 0), plus lam1 times the hypotenuse pairing against (a, b)."""
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    grad = x * f.partial(0) * g.partial(0) + y * f.partial(1) * g.partial(1)
    return oracle_integral(grad, ParamVector([a, b, 0])) \
        + lam1 * _face_pair(f, g, {2}, ParamVector([a, b]))


def oracle_named_k2_value(a, lam1, lam10, f: Polynomial, g: Polynomial) -> Fraction:
    """Exponents (a, -1, -1): <f_y, g_y> against (a, 0, 0), plus lam1 times
    the integral of x f_x g_x on the edge y = 0 against (a, 0), plus lam10
    times the values at e_1."""
    edge = Polynomial.variable(1, 0) * f.partial(0).restrict({1}) * g.partial(0).restrict({1})
    return oracle_inner_product(f.partial(1), g.partial(1), ParamVector([a, 0, 0])) \
        + lam1 * oracle_integral(edge, ParamVector([a, 0])) + lam10 * _vertex_pair(f, g, 1)


def oracle_named_k3_value(lam1, lam2, lam10, lam01, lam00,
                          f: Polynomial, g: Polynomial) -> Fraction:
    """Exponents (-1, -1, -1): <f_xy, g_xy> against (0, 0, 1), the two edge
    pairings of f_x (on y = 0) and f_y (on x = 0), and the three vertex values."""
    edge = ParamVector([0, 0])
    return oracle_inner_product(f.partial(0).partial(1), g.partial(0).partial(1),
                                ParamVector([0, 0, 1])) \
        + lam1 * _face_pair(f.partial(0), g.partial(0), {1}, edge) \
        + lam2 * _face_pair(f.partial(1), g.partial(1), {0}, edge) \
        + lam10 * _vertex_pair(f, g, 1) + lam01 * _vertex_pair(f, g, 2) \
        + lam00 * _vertex_pair(f, g, 0)


def oracle_named_symmetric_value(c, lam1, lam2, lam00, f: Polynomial,
                                 g: Polynomial) -> Fraction:
    """Exponents (-1, -1, c): <f_y - f_x, g_y - g_x> against (0, 0, c), the
    two edge pairings of f_x (on y = 0) and f_y (on x = 0) against (0, c+1),
    and the value at the origin."""
    edge = ParamVector([0, c + 1])
    df, dg = f.partial(1) - f.partial(0), g.partial(1) - g.partial(0)
    return oracle_inner_product(df, dg, ParamVector([0, 0, c])) \
        + lam1 * _face_pair(f.partial(0), g.partial(0), {1}, edge) \
        + lam2 * _face_pair(f.partial(1), g.partial(1), {0}, edge) \
        + lam00 * _vertex_pair(f, g, 0)


def oracle_value(p, f: Polynomial, g: Polynomial) -> Fraction:
    """The value of any product of `sobolex.products` at (f, g), summed term
    by term from the defining formulas: products of polynomials integrated,
    restrictions and derivatives taken for this pair alone."""
    if f.dim != p.dim or g.dim != p.dim:
        raise ValueError("dimension mismatch")
    if isinstance(p, P.ClassicalProduct):
        return oracle_inner_product(f, g, p.gamma)
    if isinstance(p, P.DerivativeProduct):
        total = oracle_inner_product(f, g, p.gamma)
        for j in range(1, p.order + 1):
            for subset in itertools.combinations(range(p.dim), j):
                lam = p.lambdas.get(frozenset(subset), Fraction(1))
                deltas = [1 if i in subset else 0 for i in range(p.dim)] + [j]
                total += lam * oracle_inner_product(
                    reduce(Polynomial.partial, subset, f), reduce(Polynomial.partial, subset, g),
                    p.gamma.shifted(deltas))
        return total
    if isinstance(p, P.SingularProduct):
        if p.k == 1:
            return _singular_k1(p, f, g)
        if p.k == p.dim + 1:
            return _singular_full(p, f, g)
        return _singular_mid(p, f, g)
    raise TypeError(f"no oracle for {type(p).__name__}")


def oracle_positive(d: int, k: int, lam=None, lam_axis=None, lam_face=None,
                    lam_vertex=None) -> bool:
    """Whether the coefficients (None meaning all ones) make the Sobolev form
    of a weight with k trailing -1 entries at dimension d an inner product:
    every face coefficient > 0 and, at k = d+1, every vertex coefficient >= 0
    with one > 0; below k = d+1, lam and every lam_axis entry > 0."""
    if not all(v > 0 for v in (lam_face or {}).values()):
        return False
    if k == d + 1:
        vertex = (1,) * (d + 1) if lam_vertex is None else lam_vertex
        return all(v >= 0 for v in vertex) and any(v > 0 for v in vertex)
    axis = (1,) * (d - k + 1) if lam_axis is None else lam_axis
    return (1 if lam is None else lam) > 0 and all(v > 0 for v in axis)


# -- span solves and determinants in plain Fractions ----------------------------

def oracle_solve_combination(target, vectors):
    """Coefficients c with sum c_i * vectors[i] == target, or None, by
    Gauss-Jordan elimination in Fractions; free coefficients are zero."""
    ncols = len(vectors)
    nrows = len(target)
    if any(len(v) != nrows for v in vectors):
        raise ValueError("vector lengths disagree")
    aug = [[Fraction(vectors[j][i]) for j in range(ncols)] + [Fraction(target[i])]
           for i in range(nrows)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][col]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        pivots.append((r, col))
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if aug[i][ncols]:
            return None
    coeffs = [Fraction(0)] * ncols
    for row, col in pivots:
        coeffs[col] = aug[row][ncols]
    return coeffs


def oracle_determinant(matrix):
    """The determinant by Gaussian elimination in Fractions with row pivoting:
    the product of the pivots, negated once per row swap."""
    m = [[Fraction(v) for v in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, n):
            factor = m[i][col] / m[col][col]
            m[i] = [a - factor * b for a, b in zip(m[i], m[col])]
    return det
