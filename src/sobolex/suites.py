"""Named verification suites: machine-checkable exact identity batteries.

Every check is an exact rational identity; no tolerances exist.  `run_suite`
owns a run: it makes the check list, passes the default weights to a suite
that takes weights and is given none, and writes the verdict tree: its d and
n_max as params, the checks' conjunction as verdict.  `suite_<name>` appends
its checks and returns what it adds: weights, leads read, or the degree used.

A check is a stream of identities, one bool each, and its verdict is their
conjunction: `_add` folds the stream with `all`, which evaluates the
identities in order and stops at the first false one.

The one-variable families on [-1,1] are checked on T^1 = [0,1]: pulled back
by x = 2u-1, they pair under the d = 1 forms of `sobolex.products`, and the
Jacobi ODE of (alpha, beta) becomes L_(beta,alpha) f = lambda_n f, which
`eigencheck` reads.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import perm, prod
from typing import Iterable, NamedTuple

from .bases import (Basis, biorthogonal_constant, eigencheck, jacobi_negative_one_beta,
                    jacobi_negative_one_one, jacobi_norm, jacobi_p, jacobi_shifted,
                    monomial_basis, monomial_element, permuted_basis,
                    permuted_element, rodrigues_basis, rodrigues_element)
from .linalg import in_span, poly_rank, positive_definite, spans_equal
from .polynomials import (Polynomial, barycentric_product, complement_power, monomial_polys,
                          monomials_of_degree)
from .products import (ONE, ClassicalProduct, DerivativeProduct, SingularProduct, Term,
                       TermList, _derivative, _vertex)
from .scalars import ParamVector, face_params, is_index
from .spaces import expected_dimension, h_space, u_space, verify_u_space

HALF = Fraction(1, 2)


def _add(checks: list[dict], name: str, identities: Iterable[bool], detail=None) -> None:
    entry: dict = {"name": name, "ok": all(identities)}
    if detail is not None:
        entry["detail"] = detail
    checks.append(entry)


def default_gammas(d: int) -> list[ParamVector]:
    return [
        ParamVector([0] * (d + 1)),
        ParamVector([HALF] * (d + 1)),
        ParamVector([1] + [0] * d),
    ]


def default_tails(d: int, k: int) -> list[tuple[Fraction, ...]]:
    m = d + 1 - k
    if m == 0:
        return [()]
    mixed = tuple(Fraction(1) if j == 0 else Fraction(1, j + 2) for j in range(m))
    return [(Fraction(0),) * m, (HALF,) * m, mixed]


def _lowered(nu: tuple[int, ...], axes: list[int]) -> tuple[int, ...]:
    """nu minus one along each axis in `axes` (twice for an axis listed twice)."""
    return tuple(v - axes.count(j) for j, v in enumerate(nu))


# ---------------------------------------------------------------------------
# one-variable families
# ---------------------------------------------------------------------------

def _on_t1(polys: list[Polynomial]) -> list[Polynomial]:
    """Each polynomial on [-1,1] pulled back to T^1 = [0,1] by x = 2u-1."""
    x = Polynomial(1, {(0,): Fraction(-1), (1,): Fraction(2)})
    return [p.substitute(0, x) for p in polys]


def _positive_diagonal(matrix: list[list[Fraction]]) -> Iterable[bool]:
    """The matrix is diagonal, and each diagonal entry is positive."""
    return (v > 0 if i == j else not v
            for i, line in enumerate(matrix) for j, v in enumerate(line))


def suite_jacobi(checks: list[dict], n_max: int) -> dict:
    n_max = max(n_max, 5)  # the degree used, which `params.n_max` reports
    degrees = range(n_max + 1)
    pairs = [(Fraction(0), Fraction(0)), (HALF, HALF),
             (Fraction(1), Fraction(0)), (HALF, Fraction(1, 3))]
    for a, b in pairs:
        tag = f"a={a},b={b}"
        shifted_params = ParamVector([b, a])
        pulled = _on_t1([jacobi_p(n, a, b) for n in degrees])
        _add(checks, f"interval-ode[{tag}]",
             (eigencheck(shifted_params, g, n) for n, g in enumerate(pulled)))
        shifted = [jacobi_shifted(n, a, b) for n in degrees]
        _add(checks, f"shifted-eigen[{tag}]",
             (eigencheck(shifted_params, p, n) for n, p in enumerate(shifted)))
        norms = ClassicalProduct(shifted_params).matrix(pulled)
        _add(checks, f"orthogonality+norm[{tag}]",
             (norms[n][m] == (jacobi_norm(n, a, b) if n == m else 0)
              for n in degrees for m in range(n, n_max + 1)))
        _add(checks, f"shifted-orthogonality[{tag}]",
             _positive_diagonal(ClassicalProduct(shifted_params).matrix(shifted)))
    # On the families pulled back to T^1, the d = 1 forms of (b, -1) and (-1, -1)
    # are 4(b+1)/(b+2) and 4 times the forms on [-1,1]: x = 2u-1 doubles each
    # derivative, and the T^1 gradient term has the mass of (b, 0), not (b+1, 0).
    # Vertex e_0 is x = -1.  A positive multiple keeps every verdict.
    for b in (Fraction(0), HALF, Fraction(2)):
        gamma, c = ParamVector([b, -1]), 4 * (b + 1) / (b + 2)
        pulled = _on_t1([jacobi_negative_one_beta(n, b) for n in degrees])
        tag = f"b={b}"
        _add(checks, f"neg-beta-ode[{tag}]",
             (eigencheck(gamma, g, n) for n, g in enumerate(pulled)))
        for lam in (Fraction(1), Fraction(2), Fraction(1, 3)):
            _add(checks, f"neg-beta-sobolev[{tag},lam={lam}]",
                 _positive_diagonal(SingularProduct(gamma, lam=c * lam).matrix(pulled)))
    x, gamma = Polynomial.variable(1, 0), ParamVector([-1, -1])
    for l1, l2 in ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(1)),
                   (HALF, Fraction(3))):
        pulled = _on_t1([jacobi_negative_one_one(n, l1, l2) for n in degrees])
        tag = f"l1={l1},l2={l2}"
        _add(checks, f"neg-both-mu[{tag}]",
             [jacobi_negative_one_one(1, l1, l2) == x + (l2 - l1) / (l1 + l2)])
        _add(checks, f"neg-both-ode[{tag}]",
             (eigencheck(gamma, g, n) for n, g in enumerate(pulled)))
        _add(checks, f"neg-both-sobolev[{tag}]",
             _positive_diagonal(SingularProduct(gamma, lam_vertex=(4 * l2, 4 * l1))
                                .matrix(pulled)))
    return {"n_max": n_max}


# ---------------------------------------------------------------------------
# the triangle: restrictions, permuted closed forms, biorthogonality
# ---------------------------------------------------------------------------

def suite_triangle(checks: list[dict], n_max: int, gammas: list[ParamVector]) -> dict:
    indices = [(k, n - k) for n in range(n_max + 1) for k in range(n + 1)]
    for gamma in gammas:
        a, b, c = gamma
        reflected = {nu: permuted_element(gamma, (2, 1), nu) for nu in indices}
        _add(checks, f"edge-restriction-x=0[{gamma}]",
             (rodrigues_element(gamma, (0, n)).restrict({0})
              == jacobi_shifted(n, c, b) for n in range(n_max + 1)))
        _add(checks, f"edge-restriction-y=0[{gamma}]",
             (rodrigues_element(gamma, (n, 0)).restrict({1})
              == jacobi_shifted(n, c, a) for n in range(n_max + 1)))
        _add(checks, f"edge-restriction-hyp[{gamma}]",
             (reflected[0, n].restrict({2}) == jacobi_shifted(n, a, b).pullback((1,))
              for n in range(n_max + 1)))
        _add(checks, f"swapped-closed-form[{gamma}]",
             (rodrigues_element(ParamVector([b, a, c]), nu).pullback((1, 0))
              == permuted_element(gamma, (1, 0), nu) for nu in indices))
        _add(checks, f"reflected-closed-form[{gamma}]",
             (rodrigues_element(ParamVector([c, b, a]), nu).pullback((2, 1)) == q
              for nu, q in reflected.items()))
    return {"gammas": [str(g) for g in gammas]}


# ---------------------------------------------------------------------------
# classical bases on T^d: eigenfunctions and orthogonality
# ---------------------------------------------------------------------------

def suite_rodrigue(checks: list[dict], d: int, n_max: int, gammas: list[ParamVector]) -> dict:
    orders = list(itertools.permutations(range(d + 1), d))
    for gamma in gammas:
        classical = ClassicalProduct(gamma)
        # the orders hold the identity order, whose permuted basis is the Rodrigues basis
        families = [(n, family.polys()) for n in range(n_max + 1)
                    for family in [monomial_basis(gamma, n),
                                   *(permuted_basis(gamma, order, n) for order in orders)]]
        _add(checks, f"eigenfunctions[{gamma}]",
             (eigencheck(gamma, p, n) for n, polys in families for p in polys))
        _add(checks, f"orthogonal-to-lower-degree[{gamma}]",
             (classical.orthogonal_below(polys, n) for n, polys in families))
        _add(checks, f"gram-positive-definite[{gamma}]",
             [positive_definite(classical.matrix(monomial_polys(d, n_max)))])
    for m_len, label in ((1, "m=(1)"), (2, "m=(1,1)")):
        if d + 1 - m_len < 1:
            continue
        _add(checks, f"partial-orthogonality[{label}]",
             (ClassicalProduct(ParamVector(list(lead) + [0] * m_len)).orthogonal_below(
                 [rodrigues_element(ParamVector(list(lead) + [-1] * m_len), nu)
                  for nu in monomials_of_degree(d, n)],
                 n - m_len)
              for lead in default_tails(d, m_len)[:2]
              for n in range(m_len + 1, n_max + 1)))
    return {"gammas": [str(g) for g in gammas]}


def _monic_partial(gamma: ParamVector, nu: tuple[int, ...], i: int) -> Polynomial:
    """d/dx_i of the monic element V_nu by the derivative identity: nu_i times
    V_{nu - e_i} at the weight with gamma_i and gamma_{d+1} raised by one."""
    if nu[i] == 0:
        return Polynomial(gamma.d)
    shifted = gamma.shifted([int(j == i) for j in range(gamma.d)] + [1])
    return nu[i] * monomial_element(shifted, _lowered(nu, [i]))


def _biorthogonality(gamma: ParamVector, monic: Basis, n: int) -> Iterable[bool]:
    """<P_nu, V_mu> is biorthogonal_constant(gamma, nu) when mu = nu, else 0,
    for the degree-n Rodrigues elements P and monic elements V."""
    basis = rodrigues_basis(gamma, n)
    matrix = ClassicalProduct(gamma).matrix(basis.polys(), monic.polys())
    return (v == (biorthogonal_constant(gamma, nu) if mu == nu else 0)
            for (nu, _), line in zip(basis.elements, matrix)
            for (mu, _), v in zip(monic.elements, line))


def suite_monomial(checks: list[dict], d: int, n_max: int, gammas: list[ParamVector]) -> dict:
    for gamma in gammas:
        monic = [monomial_basis(gamma, n) for n in range(n_max + 1)]
        _add(checks, f"monic-leading-term[{gamma}]",
             (v.coefficient(nu) == 1 and v.degree() == n
              for n, basis in enumerate(monic) for nu, v in basis.elements))
        _add(checks, f"derivative-identity[{gamma}]",
             (v.partial(i) == _monic_partial(gamma, nu, i)
              for basis in monic for nu, v in basis.elements for i in range(d)))
        _add(checks, f"biorthogonality[{gamma}]", itertools.chain.from_iterable(
            _biorthogonality(gamma, monic[n], n) for n in range(min(n_max, 3) + 1)))
        for order in range(1, d + 1):
            product = DerivativeProduct(gamma, order)
            _add(checks, f"derivative-product-orthogonality[{gamma},m={order}]",
                 (product.orthogonal_below(monic[n].polys(), n)
                  for n in range(1, n_max + 1)))
    lead = default_tails(d, 1)[0]
    sing = ParamVector(list(lead) + [-1])
    monic = [monomial_basis(sing, n) for n in range(n_max + 1)]
    spro = SingularProduct(sing)
    _add(checks, f"last-exponent-singular[{sing}]", itertools.chain(
        (v.coefficient(nu) == 1 and eigencheck(sing, v, n)
         for n, basis in enumerate(monic) for nu, v in basis.elements),
        (spro.orthogonal_below(monic[n].polys(), n) for n in range(1, n_max + 1))))
    return {"gammas": [str(g) for g in gammas]}


# ---------------------------------------------------------------------------
# the product-rule identities behind the decompositions
# ---------------------------------------------------------------------------

def _positive_indices(d: int, n: int, axes: Iterable[int]) -> list[tuple[int, ...]]:
    return [nu for nu in monomials_of_degree(d, n) if all(nu[i] >= 1 for i in axes)]


def _trailing_block(lead: tuple[Fraction, ...], k: int):
    """For the weight (lead, -1 x k): itself, (lead, 1 x k), the trailing k-1
    true axes S and the factor (1-|x|) x^S."""
    d = len(lead) + k - 1
    axes = list(range(len(lead), d))
    return (ParamVector(list(lead) + [-1] * k), ParamVector(list(lead) + [1] * k), axes,
            barycentric_product(d, axes + [d]))


def suite_lemmas4(checks: list[dict], d: int, n_max: int, gammas: list[ParamVector]) -> dict:
    """The product-rule identities of the Rodrigues elements R(g, nu), |nu| = n:
    dropped (g = entries, -1 on the true axes S; nu >= 1 on S) is R(g, nu) =
      (-1)^|S| prod_{j<|S|} (n + g_{d+1} - j) x^S R(g + 2e_S, nu - e_S);
    summed (g = (lead, -1 x k), S its trailing k-1 true axes; nu >= 1 on `positive`)
      is R(g, nu) = (1-|x|) x^S sum_{c_i != 0} c_i R((lead, 1 x k), nu - e_S - e_i),
      c_i = (-1)^(k-1) prod_{j<k-1} (n - j) nu_i (nu_i + g_i) / n."""
    leads = sorted({g[:-1] for g in gammas})
    zero = Polynomial(d)

    def dropped(entries, axes):
        gamma = ParamVector(entries).with_values({i: -1 for i in axes})
        raised = gamma.shifted([2 * (j in axes) for j in range(d + 1)])
        for n in range(len(axes), n_max + 1):
            mult = (-1) ** len(axes) * prod(n + gamma[d] - j for j in range(len(axes))) \
                * barycentric_product(d, axes)
            for nu in _positive_indices(d, n, axes):
                yield rodrigues_element(gamma, nu) \
                    == mult * rodrigues_element(raised, _lowered(nu, axes))

    def summed(lead, k, positive):
        gamma, raised, axes, factor = _trailing_block(lead, k)
        for n in range(k, n_max + 1):
            scale = Fraction((-1) ** (k - 1) * perm(n, k - 1), n)
            for nu in _positive_indices(d, n, positive):
                terms = [(lam, _lowered(nu, axes + [i])) for i in range(d)
                         if (lam := scale * nu[i] * (nu[i] + gamma[i]))]
                # `positive` holds S, so every index m of a nonzero c_i is >= 0
                yield rodrigues_element(gamma, nu) == factor * sum(
                    (lam * rodrigues_element(raised, m) for lam, m in terms), zero)

    def homogeneous_face_block():
        # on a homogeneous p of degree n, L - lambda_n keeps only its lowering part
        for lead in leads:
            face = ParamVector([*lead, 0])
            for n in range(n_max + 1):
                for p in h_space(face, [d], n).polys():
                    yield all(sum(a) == n for a, _ in p.items()) and eigencheck(face, p, n)

    chain = itertools.chain.from_iterable
    _add(checks, "drop-last-exponent", chain(summed(lead, 1, range(d)) for lead in leads))
    _add(checks, "drop-inner-exponent",
         chain(dropped([*lead, last], [i])
               for lead in leads for i in range(d) for last in (0, HALF)))
    _add(checks, "drop-inner-block",
         chain(dropped([*default_tails(d, k)[2], *[-1] * (k - 1), last], range(d + 1 - k, d))
               for k in range(2, d + 1) for last in (0, HALF)))
    _add(checks, "sum-rule",
         chain(summed(default_tails(d, k)[2], k, range(d + 1 - k, d)) for k in range(1, d + 1)))

    # the mixed tail's families have non-integer coefficients, unlike the zero tail's
    spans = []
    for k in range(1, d + 1):
        for tail in default_tails(d, k)[::2]:
            gamma, raised, axes, factor = _trailing_block(tail, k)
            for n in range(0, max(0, n_max - k) + 1):
                for nu in monomials_of_degree(d, n):
                    family = [rodrigues_element(gamma, tuple(v + (i in axes) for i, v in
                                                             enumerate((n - sum(j) + 1, *j))))
                              for j in itertools.product(*(range(v + 1) for v in nu[1:]))]
                    target = factor * rodrigues_element(raised, nu)
                    coeffs = in_span(target, family)
                    spans.append((tail, k, nu, coeffs, coeffs is not None and target == sum(
                        (c * b for c, b in zip(coeffs, family)), zero)))
    mus = {f"k={k},nu={nu}": [str(c) for c in coeffs]
           for tail, k, nu, coeffs, _ in spans
           if coeffs is not None and not any(tail) and k == d and sum(nu) <= 1}
    _add(checks, "reverse-membership", (ok for *_, ok in spans), detail={"sample_mu": mus})

    _add(checks, "homogeneous-face-block", homogeneous_face_block())
    return {"leads": [",".join(map(str, lead)) for lead in leads]}


# ---------------------------------------------------------------------------
# the d = 2 specializations
# ---------------------------------------------------------------------------

# The paper's d = 2 Sobolev forms, written out term by term; thm31 compares
# each with SingularProduct (the symmetric one at lam1 = 0, reflected).

def named_k1(a, b, lam1) -> TermList:
    """Exponents (a, b, -1): the gradient term plus the hypotenuse integral."""
    grad = ParamVector((a, b, 0))
    return TermList(2, {"kind": "triangle[a,b,-1]"}, [
        Term(ONE, _derivative((0,)), grad, (1, 0)),
        Term(ONE, _derivative((1,)), grad, (0, 1)),
        Term(lam1, _derivative((), (2,)), ParamVector((a, b)))])


def named_k2(a, lam1, lam10) -> TermList:
    """Exponents (a, -1, -1): a y-derivative, the edge y = 0 and the vertex e_1."""
    return TermList(2, {"kind": "triangle[a,-1,-1]"}, [
        Term(ONE, _derivative((1,)), ParamVector((a, 0, 0))),
        Term(lam1, _derivative((0,), (1,)), ParamVector((a, 0)), (1,)),
        Term(lam10, _vertex(1), None)])


def named_k3(lam1, lam2, lam10, lam01, lam00) -> TermList:
    """Exponents (-1, -1, -1): a mixed derivative, two edge integrals, three vertices."""
    edge = ParamVector((0, 0))
    return TermList(2, {"kind": "triangle[-1,-1,-1]"}, [
        Term(ONE, _derivative((0, 1)), ParamVector((0, 0, 1))),
        Term(lam1, _derivative((0,), (1,)), edge),
        Term(lam2, _derivative((1,), (0,)), edge),
        Term(lam10, _vertex(1), None),
        Term(lam01, _vertex(2), None),
        Term(lam00, _vertex(0), None)])


def named_symmetric(c, lam1, lam2, lam00) -> TermList:
    """Exponents (-1, -1, c): a directional derivative and two edge integrals."""
    edge = ParamVector((0, c + 1))
    return TermList(2, {"kind": "triangle[-1,-1,c]"}, [
        Term(ONE, lambda f: f.partial(1) - f.partial(0), ParamVector((0, 0, c))),
        Term(lam1, _derivative((0,), (1,)), edge),
        Term(lam2, _derivative((1,), (0,)), edge),
        Term(lam00, _vertex(0), None)])


def suite_thm31(checks: list[dict], n_max: int) -> None:
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    w = complement_power(2, 1)
    xy, yw, xyw = x * y, y * w, x * y * w
    samples = [(Fraction(0), Fraction(0)), (HALF, Fraction(1))]

    def u(entries, n: int, **lams) -> list[Polynomial]:
        """U_n of the singular weight `entries`, read off its Sobolev form."""
        return u_space(SingularProduct(ParamVector(entries), **lams), n).polys()

    k1 = {(a, b): [u([a, b, -1], n) for n in range(n_max + 1)] for a, b in samples}
    for a, b in samples:
        tag = f"a={a},b={b}"
        _add(checks, f"decomposition-k1[{tag}]",
             (spans_equal(k1[a, b][n],
                          [w * p for p in rodrigues_basis(ParamVector([a, b, 1]), n - 1).polys()]
                          + [permuted_element(ParamVector([a, b, 0]), (2, 1), (0, n))])
              for n in range(n_max + 1)))

    for a in (Fraction(0), HALF):
        tag = f"a={a}"
        # (n, the space, its element w R_(n-1,0)), read by both checks below
        k2 = [(n, u([a, -1, -1], n),
               w * rodrigues_element(ParamVector([a, 0, 1]), (n - 1, 0)))
              for n in range(1, n_max + 1)]
        _add(checks, f"decomposition-k2[{tag}]",
             (spans_equal(space, [yw * p for p in rodrigues_basis(ParamVector([a, 1, 1]),
                                                                  n - 2).polys()]
                          + [y * permuted_element(ParamVector([a, 1, 0]), (2, 1), (0, n - 1)),
                             edge])
              for n, space, edge in k2))
        _add(checks, f"recursion-k2[{tag}]",
             (spans_equal(space, [y * p for p in u([a, 1, -1], n - 1)] + [edge])
              for n, space, edge in k2))

    k3 = [(n, u([-1, -1, -1], n),
           yw * rodrigues_element(ParamVector([0, 1, 1]), (0, n - 2)))
          for n in range(2, n_max + 1)]
    _add(checks, "decomposition-k3",
         (spans_equal(space, [xyw * p for p in rodrigues_basis(ParamVector([1, 1, 1]),
                                                               n - 3).polys()]
                      + [xy * permuted_element(ParamVector([1, 1, 0]), (2, 1), (0, n - 2)),
                         x * w * rodrigues_element(ParamVector([1, 0, 1]), (n - 2, 0)),
                         edge])
          for n, space, edge in k3))
    _add(checks, "recursion-k3",
         (spans_equal(space, [x * p for p in u([1, -1, -1], n - 1)] + [edge])
          for n, space, edge in k3))

    lam_choices = [(Fraction(1), Fraction(1), Fraction(1)),
                   (Fraction(2), Fraction(1), Fraction(3)),
                   (HALF, Fraction(1, 3), Fraction(5))]
    _add(checks, "degree-one-redefinition",
         (u([-1, -1, -1], 1, lam_vertex=(l00, l10, l01))
          == [x - l10 / (l00 + l10 + l01), y - l01 / (l00 + l10 + l01)]
          for l00, l10, l01 in lam_choices))

    # the (-1,-1,c) eigenspace at degree n, keyed by (c, n)
    pair = {(c, n): [xy * p for p in rodrigues_basis(ParamVector([1, 1, c]), n - 2).polys()]
            + [x * rodrigues_element(ParamVector([1, 0, c]), (n - 1, 0)),
               y * rodrigues_element(ParamVector([0, 1, c]), (0, n - 1))]
            for c in (Fraction(0), HALF) for n in range(1, n_max + 1)}

    def permuted_singular_pair():
        for (c, n), elems in pair.items():
            yield from (eigencheck(ParamVector([-1, -1, c]), p, n) for p in elems)
            yield poly_rank(elems) == expected_dimension(2, n) == len(elems)

    _add(checks, "permuted-singular-pair", permuted_singular_pair())

    probes = monomial_polys(2, 3)

    def same_gram(named, general, general_probes=probes) -> bool:
        return named.matrix(probes) == general.matrix(general_probes)

    _add(checks, "named-vs-general-k1",
         (same_gram(named_k1(a, b, Fraction(2)),
                    SingularProduct(ParamVector([a, b, -1]), lam=Fraction(2)))
          for a, b in samples))
    _add(checks, "named-vs-general-k2",
         (same_gram(named_k2(a, Fraction(2), Fraction(3)),
                    SingularProduct(ParamVector([a, -1, -1]), lam=Fraction(3),
                                    lam_axis=(Fraction(2),)))
          for a in (Fraction(0), HALF)))
    named = named_k3(Fraction(2), Fraction(3), Fraction(5), Fraction(7), Fraction(11))
    general = SingularProduct(ParamVector([-1, -1, -1]),
                              lam_face={frozenset({0}): Fraction(2),
                                        frozenset({1}): Fraction(3)},
                              lam_vertex=(Fraction(11), Fraction(5), Fraction(7)))
    _add(checks, "named-vs-general-k3", [same_gram(named, general)])

    # The named edge term integrates against (1-y)^{c+1} while the general
    # construction integrates u * (...) against u^c; the two per-term masses
    # differ by (c+2)/(c+1), absorbed into the free coefficient.
    # F(u1,u2) = f(u2, 1-u1-u2) moves the singular slots (1,2) to the
    # trailing positions of the parameter list
    reflected = [f.pullback((1, 2)) for f in probes]
    _add(checks, "named-vs-general-symmetric-variant",
         (same_gram(named_symmetric(c, 0, 2 * (c + 1) / (c + 2), Fraction(3)),
                    SingularProduct(ParamVector([c, -1, -1]), lam=Fraction(3),
                                    lam_axis=(Fraction(2),)),
                    reflected)
          for c in (Fraction(0), HALF)))

    forms = [(c, named_symmetric(c, *lams)) for c in (Fraction(0), HALF)
             for lams in ((Fraction(1), Fraction(1), Fraction(1)),
                          (Fraction(2), Fraction(0), Fraction(3)),
                          (Fraction(0), Fraction(1), HALF))]
    _add(checks, "symmetric-variant-orthogonality",
         (form.orthogonal_below(pair[c, n], n)
          for c, form in forms for n in range(1, n_max + 1)))

    _add(checks, "named-k1-orthogonality",
         (named_k1(a, b, Fraction(1)).orthogonal_below(k1[a, b][n], n)
          for a, b in samples for n in range(n_max + 1)))


# ---------------------------------------------------------------------------
# general dimension: eigenspace ranks and Sobolev orthogonality
# ---------------------------------------------------------------------------

def _singular_weights(d: int) -> Iterable[tuple[str, ParamVector]]:
    """(tag, weight) for each sampled weight with a trailing block of k -1s,
    k = 1..d+1, led by each of `default_tails(d, k)`."""
    for k in range(1, d + 2):
        for tail in default_tails(d, k):
            yield (f"k={k},tail=({','.join(map(str, tail))})",
                   ParamVector(list(tail) + [-1] * k))


def _solution_space(form: SingularProduct, n_max: int) -> Iterable[bool]:
    """Each U_n of the form's weight has the expected dimension and full rank,
    and solves the eigenfunction equation at that weight."""
    for n in range(n_max + 1):
        basis = u_space(form, n)
        yield len(basis) == expected_dimension(form.dim, n)
        yield poly_rank(basis.polys()) == len(basis)
        yield from (eigencheck(form.gamma, p, n) for p in basis.polys())


def suite_thm34(checks: list[dict], d: int, n_max: int) -> None:
    for tag, gamma in _singular_weights(d):
        _add(checks, f"solution-space[{tag}]", _solution_space(SingularProduct(gamma), n_max))

    gamma0 = default_gammas(d)[1]
    zero_sets: list[tuple[int, ...]] = [(d,), (0,)] if d >= 2 else []
    if d >= 3:
        zero_sets += [(0, d), (1, 2)]
    blocks = {(zset, n): h_space(gamma0, zset, n)
              for zset in zero_sets for n in range(min(n_max, 3) + 1)}

    def face_restriction_law():
        for (zset, n), block in blocks.items():
            restricted = [p.restrict(zset) for p in block.polys()]
            if restricted:
                dprime = d - len(zset)
                yield poly_rank(restricted) == expected_dimension(dprime, n) == len(restricted)
                yield ClassicalProduct(face_params(block.params, zset)).orthogonal_below(
                    restricted, n)

    _add(checks, "face-restriction-law", face_restriction_law())
    _add(checks, "face-block-convention-independence",
         (spans_equal(block.polys(), _h_space_alternate(gamma0, zset, n))
          for (zset, n), block in blocks.items() if d in zset and block.elements))


def _h_space_alternate(gamma: ParamVector, zero_axes: Iterable[int],
                       n: int) -> list[Polynomial]:
    """Same face block (d in `zero_axes`) built with the lowest (not highest)
    surviving index excluded; confirms the span does not depend on that convention."""
    d = gamma.d
    zset = frozenset(zero_axes)
    pinned = gamma.with_values({i: 0 for i in zset})
    true_zeros = sorted(zset - {d})
    free = [i for i in range(d) if i not in true_zeros]
    order = tuple([d] + true_zeros + free[1:])
    z = len(zset)
    return [permuted_element(pinned, order, (0,) * z + part)
            for part in monomials_of_degree(d - z, n)]


def suite_thm36(checks: list[dict], d: int, n_max: int) -> None:
    probes = monomial_polys(d, 3)
    for tag, gamma in _singular_weights(d):
        product = SingularProduct(gamma)
        _add(checks, f"sobolev-orthogonality[{tag}]",
             (verify_u_space(product, n)["ok"] for n in range(n_max + 1)))
        _add(checks, f"positive-definite[{tag}]",
             [positive_definite(product.matrix(probes))])
    tail0 = default_tails(d, 1)[0]
    product = SingularProduct(ParamVector(list(tail0) + [-1]))
    _add(checks, "k1-block-orthogonality",
         (product.orthogonal(
             [complement_power(d, 1) * p
              for p in rodrigues_basis(ParamVector(list(tail0) + [1]), n - 1).polys()],
             h_space(ParamVector(list(tail0) + [0]), [d], n).polys())
          for n in range(1, n_max + 1)))
    if d >= 2:
        lams = tuple(Fraction(j + 1, 2) for j in range(d + 1))
        product = SingularProduct(ParamVector([-1] * (d + 1)), lam_vertex=lams)
        _add(checks, "vertex-lambda-variation",
             (verify_u_space(product, n)["ok"]
              for n in range(min(n_max, 3) + 1)))


# ---------------------------------------------------------------------------
# the suite table
# ---------------------------------------------------------------------------

class Suite(NamedTuple):
    d: int | None       # the one d it runs at; None: any d >= 1
    takes_gammas: bool  # whether it takes weights (`gammas`)
    every_all: bool     # False: only an `all` at its own d runs it


# Every suite, in the order `all` runs them.  `run_suite` calls what is bound
# to `suite_<name>` in this module when it runs, so that a wrapper bound there
# (the benchmark's tracer) sees the call.
SUITES = {
    "jacobi": Suite(1, False, True),
    "triangle": Suite(2, True, False),
    "thm31": Suite(2, False, False),
    "rodrigue": Suite(None, True, True),
    "monomial": Suite(None, True, True),
    "lemmas4": Suite(None, True, True),
    "thm34": Suite(None, False, True),
    "thm36": Suite(None, False, True),
}


def run_suite(name: str, d: int | None = None, n_max: int = 3,
              gammas: list[ParamVector] | None = None) -> dict:
    """Suite `name` (a key of SUITES, or "all") at d; d=None is the suite's own
    d, else its first weight's, else 2, and gammas=None its default weights.
    A d, weights or a weight length its row rules out, or gammas=[], is a ValueError."""
    row = Suite(None, False, False) if name == "all" else SUITES.get(name)
    if row is None:
        raise ValueError(f"unknown suite {name!r}")
    d = (row.d or (gammas[0].d if gammas else 2)) if d is None else d
    if not is_index(d, 1) or row.d not in (None, d):
        raise ValueError(f"suite {name!r} does not run at d = {d}")
    if not is_index(n_max, 0):
        raise ValueError(f"n_max must be >= 0, not {n_max}")
    if gammas is not None and not row.takes_gammas:
        raise ValueError(f"suite {name!r} takes no weights")
    if gammas is not None and not gammas:
        raise ValueError(f"suite {name!r} needs at least one weight (None means the defaults)")
    if any(gamma.d != d for gamma in gammas or ()):
        raise ValueError(f"a weight at d = {d} has {d + 1} entries")
    params = {"n_max": n_max} if row.d else {"d": d, "n_max": n_max}
    if name == "all":
        key = "suites"
        parts = [run_suite(other, suite.d or d, n_max) for other, suite in SUITES.items()
                 if suite.every_all or suite.d == d]
    else:
        key, parts = "checks", []
        args = ([d] if row.d is None else []) + [n_max]
        if row.takes_gammas:
            args.append(gammas or default_gammas(d))
        params.update(globals()[f"suite_{name}"](parts, *args) or {})
    return {"suite": name, "params": params, "ok": all(p["ok"] for p in parts), key: parts}
