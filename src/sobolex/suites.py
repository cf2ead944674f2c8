"""Named verification suites: machine-checkable exact identity batteries.

Every check is an exact rational identity; a suite returns a deterministic
verdict tree suitable for JSON serialization.  No tolerances exist.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from .bases import (all_orders, biorthogonal_constant, eigencheck,
                    jacobi_negative_one_beta, jacobi_negative_one_one,
                    jacobi_norm, jacobi_ode_residual, jacobi_p, jacobi_shifted,
                    monomial_basis, monomial_element, permuted_basis,
                    permuted_element, rodrigues_basis, rodrigues_element)
from .linalg import in_span, poly_rank, spans_equal
from .moments import integral
from .polynomials import Polynomial, complement, monomials_of_degree, monomials_up_to
from .products import (ClassicalProduct, DerivativeProduct, JacobiSingularBeta,
                       JacobiSingularBoth, SingularProduct, TriangleAllSingular,
                       TriangleBetaGammaSingular, TriangleFirstTwoSingular,
                       TriangleGammaSingular, gram, labeled)
from .scalars import format_rational
from .spaces import expected_dimension, h_space, u_space, verify_u_space
from .weighted import ParamVector, face_params

HALF = Fraction(1, 2)


def _result(suite: str, params: dict, checks: list[dict]) -> dict:
    return {"suite": suite, "params": params, "ok": all(c["ok"] for c in checks),
            "checks": checks}


def _add(checks: list[dict], name: str, ok: bool, detail=None) -> None:
    entry: dict = {"name": name, "ok": bool(ok)}
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
    return [tuple(Fraction(0) for _ in range(m)),
            tuple(HALF for _ in range(m)),
            mixed]


def _gamma_tag(gamma: ParamVector) -> str:
    return ",".join(format_rational(g) for g in gamma.entries)


def _monomial_polys(d: int, up_to: int) -> list[Polynomial]:
    return [Polynomial.monomial(d, e) for e in monomials_up_to(d, up_to)]


def _scaled(mult: Polynomial, polys: list[Polynomial]) -> list[Polynomial]:
    return [mult * p for p in polys]


def _orthogonal(product, polys: list[Polynomial], others: list[Polynomial]) -> bool:
    """Every polynomial in `polys` pairs to zero with every one in `others`."""
    return gram(product, labeled(polys), labeled(others)).all_zero


# ---------------------------------------------------------------------------
# one-variable families
# ---------------------------------------------------------------------------

def jacobi_interval_product(f: Polynomial, g: Polynomial, alpha, beta) -> Fraction:
    """Normalized pairing on [-1,1] against (1-x)^alpha (1+x)^beta."""
    sub = Polynomial(1, {(0,): Fraction(-1), (1,): Fraction(2)})
    return integral((f * g).substitute(0, sub), ParamVector([beta, alpha]))


def suite_jacobi(n_max: int = 5) -> dict:
    checks: list[dict] = []
    pairs = [(Fraction(0), Fraction(0)), (HALF, HALF),
             (Fraction(1), Fraction(0)), (HALF, Fraction(1, 3))]
    for a, b in pairs:
        tag = f"a={format_rational(a)},b={format_rational(b)}"
        polys = [jacobi_p(n, a, b) for n in range(n_max + 1)]
        _add(checks, f"interval-ode[{tag}]",
             all(jacobi_ode_residual(polys[n], n, a, b).is_zero
                 for n in range(n_max + 1)))
        shifted_params = ParamVector([b, a])
        _add(checks, f"shifted-eigen[{tag}]",
             all(eigencheck(shifted_params, jacobi_shifted(n, a, b), n)
                 for n in range(n_max + 1)))
        ortho_ok = True
        for n in range(n_max + 1):
            for m in range(n, n_max + 1):
                val = jacobi_interval_product(polys[n], polys[m], a, b)
                want = jacobi_norm(n, a, b) if n == m else Fraction(0)
                ortho_ok = ortho_ok and val == want
        _add(checks, f"orthogonality+norm[{tag}]", ortho_ok)
        shifted = [jacobi_shifted(n, a, b) for n in range(n_max + 1)]
        _add(checks, f"shifted-orthogonality[{tag}]",
             gram(ClassicalProduct(shifted_params), labeled(shifted)).diagonal)
    for b in (Fraction(0), HALF, Fraction(2)):
        fam = [jacobi_negative_one_beta(n, b) for n in range(n_max + 1)]
        tag = f"b={format_rational(b)}"
        _add(checks, f"neg-beta-ode[{tag}]",
             all(jacobi_ode_residual(fam[n], n, Fraction(-1), b).is_zero
                 for n in range(n_max + 1)))
        for lam in (Fraction(1), Fraction(2), Fraction(1, 3)):
            rep = gram(JacobiSingularBeta(b, lam), labeled(fam, "P"))
            _add(checks, f"neg-beta-sobolev[{tag},lam={format_rational(lam)}]",
                 rep.diagonal and all(rep.matrix[i][i] > 0 for i in range(len(fam))))
    for l1, l2 in ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(1)),
                   (HALF, Fraction(3))):
        fam = [jacobi_negative_one_one(n, l1, l2) for n in range(n_max + 1)]
        tag = f"l1={format_rational(l1)},l2={format_rational(l2)}"
        x = Polynomial.variable(1, 0)
        _add(checks, f"neg-both-mu[{tag}]", fam[1] == x + (l2 - l1) / (l1 + l2))
        _add(checks, f"neg-both-ode[{tag}]",
             all(jacobi_ode_residual(fam[n], n, Fraction(-1), Fraction(-1)).is_zero
                 for n in range(n_max + 1)))
        rep = gram(JacobiSingularBoth(l1, l2), labeled(fam, "P"))
        _add(checks, f"neg-both-sobolev[{tag}]",
             rep.diagonal and all(rep.matrix[i][i] > 0 for i in range(len(fam))))
    return _result("jacobi", {"n_max": n_max}, checks)


# ---------------------------------------------------------------------------
# the triangle: restrictions, permuted closed forms, biorthogonality
# ---------------------------------------------------------------------------

def _compose_reflected(f: Polynomial) -> Polynomial:
    """f(u,v) -> f(1-x-y, y)."""
    return f.substitute(0, complement(2))


def suite_triangle(n_max: int = 4, gammas: list[ParamVector] | None = None) -> dict:
    checks: list[dict] = []
    gammas = gammas or default_gammas(2)
    one_minus_t = Polynomial(1, {(0,): Fraction(1), (1,): Fraction(-1)})
    for gamma in gammas:
        a, b, c = gamma.entries
        tag = _gamma_tag(gamma)
        _add(checks, f"edge-restriction-x=0[{tag}]",
             all(rodrigues_element(gamma, (0, n)).restrict({0})
                 == jacobi_shifted(n, c, b) for n in range(n_max + 1)))
        _add(checks, f"edge-restriction-y=0[{tag}]",
             all(rodrigues_element(gamma, (n, 0)).restrict({1})
                 == jacobi_shifted(n, c, a) for n in range(n_max + 1)))
        _add(checks, f"edge-restriction-hyp[{tag}]",
             all(permuted_element(gamma, (2, 1), (0, n)).restrict({2})
                 == jacobi_shifted(n, a, b).substitute(0, one_minus_t)
                 for n in range(n_max + 1)))
        swap_ok = ref_ok = True
        for n in range(n_max + 1):
            for k in range(n + 1):
                nu = (k, n - k)
                direct_q = rodrigues_element(ParamVector([b, a, c]), nu).permute((1, 0))
                swap_ok = swap_ok and direct_q == permuted_element(gamma, (1, 0), nu)
                base_r = rodrigues_element(ParamVector([c, b, a]), nu)
                ref_ok = ref_ok and _compose_reflected(base_r) \
                    == permuted_element(gamma, (2, 1), nu)
        _add(checks, f"swapped-closed-form[{tag}]", swap_ok)
        _add(checks, f"reflected-closed-form[{tag}]", ref_ok)
    return _result("triangle", {"n_max": n_max,
                                "gammas": [_gamma_tag(g) for g in gammas]}, checks)


# ---------------------------------------------------------------------------
# classical bases on T^d: eigenfunctions and orthogonality
# ---------------------------------------------------------------------------

def suite_rodrigue(d: int = 2, n_max: int = 4,
                   gammas: list[ParamVector] | None = None) -> dict:
    checks: list[dict] = []
    gammas = gammas or default_gammas(d)
    orders = all_orders(d)
    for gamma in gammas:
        tag = _gamma_tag(gamma)
        classical = ClassicalProduct(gamma)
        eig_ok = ortho_ok = True
        for n in range(n_max + 1):
            families = [rodrigues_basis(gamma, n), monomial_basis(gamma, n)]
            families += [permuted_basis(gamma, order, n) for order in orders]
            lower = _monomial_polys(d, n - 1)
            for fam in families:
                eig_ok = eig_ok and all(eigencheck(gamma, p, n) for p in fam.polys())
                ortho_ok = ortho_ok and _orthogonal(classical, fam.polys(), lower)
        _add(checks, f"eigenfunctions[{tag}]", eig_ok)
        _add(checks, f"orthogonal-to-lower-degree[{tag}]", ortho_ok)
        rep = gram(classical, labeled(_monomial_polys(d, n_max), "m"))
        _add(checks, f"gram-positive-definite[{tag}]", bool(rep.positive_definite))
    zeros = tuple(Fraction(0) for _ in range(d))
    halves = tuple(HALF for _ in range(d))
    for m_len, label in ((1, "m=(1)"), (2, "m=(1,1)")):
        if d + 1 - m_len < 1:
            continue
        ok = True
        for lead in {zeros[: d + 1 - m_len], halves[: d + 1 - m_len]}:
            gamma_sing = ParamVector(list(lead) + [-1] * m_len)
            gamma_zero = ParamVector(list(lead) + [0] * m_len)
            for n in range(m_len + 1, n_max + 1):
                elems = [rodrigues_element(gamma_sing, nu)
                         for nu in monomials_of_degree(d, n)]
                ok = ok and _orthogonal(ClassicalProduct(gamma_zero), elems,
                                        _monomial_polys(d, n - m_len - 1))
        _add(checks, f"partial-orthogonality[{label}]", ok)
    return _result("rodrigue", {"d": d, "n_max": n_max,
                                "gammas": [_gamma_tag(g) for g in gammas]}, checks)


def suite_monomial(d: int = 2, n_max: int = 4,
                   gammas: list[ParamVector] | None = None) -> dict:
    checks: list[dict] = []
    gammas = gammas or default_gammas(d)
    for gamma in gammas:
        tag = _gamma_tag(gamma)
        monic_ok = diff_ok = True
        for n in range(n_max + 1):
            for nu in monomials_of_degree(d, n):
                v = monomial_element(gamma, nu)
                monic_ok = monic_ok and v.coefficient(nu) == 1 and v.degree() == n
                for i in range(d):
                    if nu[i] == 0:
                        want = Polynomial.zero(d)
                    else:
                        shifted = gamma.shifted([1 if j == i else 0
                                                 for j in range(d)] + [1])
                        lowered = tuple(nu[j] - (j == i) for j in range(d))
                        want = nu[i] * monomial_element(shifted, lowered)
                    diff_ok = diff_ok and v.partial(i) == want
        _add(checks, f"monic-leading-term[{tag}]", monic_ok)
        _add(checks, f"derivative-identity[{tag}]", diff_ok)
        bi_ok = True
        for n in range(min(n_max, 3) + 1):
            basis = rodrigues_basis(gamma, n)
            mus = monomials_of_degree(d, n)
            rep = gram(ClassicalProduct(gamma), labeled(basis.polys()),
                       labeled([monomial_element(gamma, mu) for mu in mus]))
            bi_ok = bi_ok and all(
                v == (biorthogonal_constant(gamma, nu) if mu == nu else 0)
                for (nu, _), line in zip(basis.elements, rep.matrix)
                for mu, v in zip(mus, line))
        _add(checks, f"biorthogonality[{tag}]", bi_ok)
        for order in range(1, d + 1):
            product = DerivativeProduct(gamma, order)
            epd_ok = all(_monic_orthogonal(product, gamma, n) for n in range(1, n_max + 1))
            _add(checks, f"derivative-product-orthogonality[{tag},m={order}]", epd_ok)
    lead = tuple(HALF for _ in range(d)) if d == 1 else tuple(Fraction(0) for _ in range(d))
    sing = ParamVector(list(lead) + [-1])
    sing_ok = True
    for n in range(n_max + 1):
        for nu in monomials_of_degree(d, n):
            v = monomial_element(sing, nu)
            sing_ok = sing_ok and v.coefficient(nu) == 1 and eigencheck(sing, v, n)
    spro = SingularProduct(d, lead, 1)
    sob_ok = all(_monic_orthogonal(spro, sing, n) for n in range(1, n_max + 1))
    _add(checks, f"last-exponent-singular[{_gamma_tag(sing)}]", sing_ok and sob_ok)
    return _result("monomial", {"d": d, "n_max": n_max,
                                "gammas": [_gamma_tag(g) for g in gammas]}, checks)


def _monic_orthogonal(product, gamma: ParamVector, n: int) -> bool:
    """Every degree-n monic element is orthogonal to the lower-degree monomials."""
    monic = [monomial_element(gamma, nu) for nu in monomials_of_degree(gamma.d, n)]
    return _orthogonal(product, monic, _monomial_polys(gamma.d, n - 1))


# ---------------------------------------------------------------------------
# the product-rule identities behind the decompositions
# ---------------------------------------------------------------------------

def _positive_indices(d: int, n: int, axes: list[int]) -> list[tuple[int, ...]]:
    return [nu for nu in monomials_of_degree(d, n) if all(nu[i] >= 1 for i in axes)]


def suite_lemmas4(d: int = 2, n_max: int = 4,
                  gammas: list[ParamVector] | None = None) -> dict:
    checks: list[dict] = []
    gammas = gammas or default_gammas(d)
    leads = sorted({g.entries[:-1] for g in gammas})

    ok = True
    for lead in leads:
        gamma_sing = ParamVector(list(lead) + [-1])
        gamma_plus = ParamVector(list(lead) + [1])
        for n in range(d, n_max + 1):
            for nu in _positive_indices(d, n, list(range(d))):
                rhs = Polynomial.zero(d)
                for i in range(d):
                    coef = Fraction(nu[i]) * (lead[i] + nu[i]) / n
                    lowered = tuple(nu[j] - (j == i) for j in range(d))
                    rhs = rhs + coef * rodrigues_element(gamma_plus, lowered)
                ok = ok and rodrigues_element(gamma_sing, nu) == complement(d) * rhs
    _add(checks, "drop-last-exponent", ok)

    ok = True
    for lead in leads:
        for i in range(d):
            for last in (Fraction(0), HALF):
                entries = list(lead) + [last]
                entries[i] = Fraction(-1)
                gamma_sing = ParamVector(entries)
                bumped = ParamVector([e + (2 if j == i else 0)
                                      for j, e in enumerate(entries[:-1])] + [last])
                for n in range(1, n_max + 1):
                    for nu in _positive_indices(d, n, [i]):
                        lowered = tuple(nu[j] - (j == i) for j in range(d))
                        want = (-(n + last)) * Polynomial.variable(d, i) \
                            * rodrigues_element(bumped, lowered)
                        ok = ok and rodrigues_element(gamma_sing, nu) == want
    _add(checks, "drop-inner-exponent", ok)

    ok = True
    for k in range(2, d + 1):
        for last in (Fraction(0), HALF):
            lead = default_tails(d, k)[2]
            entries = list(lead) + [-1] * (k - 1) + [last]
            gamma_sing = ParamVector(entries)
            gamma_plus = ParamVector(list(lead) + [1] * (k - 1) + [last])
            axes = list(range(d + 1 - k, d))
            for n in range(k - 1, n_max + 1):
                for nu in _positive_indices(d, n, axes):
                    factor = Fraction((-1) ** (k - 1))
                    for j in range(1, k):
                        factor *= n + last - j + 1
                    mult = Polynomial.constant(d, 1)
                    for i in axes:
                        mult = mult * Polynomial.variable(d, i)
                    lowered = tuple(nu[j] - (1 if j in axes else 0) for j in range(d))
                    want = factor * mult * rodrigues_element(gamma_plus, lowered)
                    ok = ok and rodrigues_element(gamma_sing, nu) == want
    _add(checks, "drop-inner-block", ok)

    ok = True
    for k in range(1, d + 1):
        lead = default_tails(d, k)[2]
        gamma_sing = ParamVector(list(lead) + [-1] * k)
        gamma_plus = ParamVector(list(lead) + [1] * k)
        axes = list(range(d + 1 - k, d))
        xk = complement(d)
        for i in axes:
            xk = xk * Polynomial.variable(d, i)
        full_entries = list(lead) + [Fraction(-1)] * (k - 1)
        for n in range(k, n_max + 1):
            for nu in _positive_indices(d, n, axes):
                rhs = Polynomial.zero(d)
                valid = True
                for i in range(d):
                    lam = Fraction((-1) ** (k - 1)) * nu[i] * (nu[i] + full_entries[i]) / n
                    for j in range(k - 1):
                        lam *= n - j
                    if lam == 0:
                        continue
                    lowered = [nu[j] - (1 if j in axes else 0) for j in range(d)]
                    lowered[i] -= 1
                    if any(v < 0 for v in lowered):
                        valid = False
                        break
                    rhs = rhs + lam * rodrigues_element(gamma_plus, tuple(lowered))
                ok = ok and valid and rodrigues_element(gamma_sing, nu) == xk * rhs
    _add(checks, "sum-rule", ok)

    ok = True
    mus: dict[str, list[str]] = {}
    for k in range(1, d + 1):
        lead = default_tails(d, k)[0]
        gamma_sing = ParamVector(list(lead) + [-1] * k)
        gamma_plus = ParamVector(list(lead) + [1] * k)
        axes = list(range(d + 1 - k, d))
        xk = complement(d)
        for i in axes:
            xk = xk * Polynomial.variable(d, i)
        for n in range(0, max(0, n_max - k) + 1):
            for nu in monomials_of_degree(d, n):
                target = xk * rodrigues_element(gamma_plus, nu)
                family = []
                for j_rest in itertools.product(*(range(nu[i] + 1)
                                                  for i in range(1, d))):
                    m = [n - sum(j_rest) + 1, *j_rest]
                    for i in axes:
                        m[i] += 1
                    family.append(rodrigues_element(gamma_sing, tuple(m)))
                coeffs = in_span(target, family)
                ok = ok and coeffs is not None
                if coeffs is not None and k == d and n <= 1:
                    mus[f"k={k},nu={nu}"] = [format_rational(c) for c in coeffs]
    _add(checks, "reverse-membership", ok, detail={"sample_mu": mus})

    ok = True
    for lead in leads:
        gamma_zero = ParamVector(list(lead) + [0])
        for n in range(n_max + 1):
            block = h_space(gamma_zero, [d], n)
            for _, p in block.elements:
                euler = Polynomial.zero(d)
                second = Polynomial.zero(d)
                for i in range(d):
                    xi = Polynomial.variable(d, i)
                    euler = euler + xi * p.partial(i)
                    second = second + xi * p.partial(i).partial(i) \
                        + (lead[i] + 1) * p.partial(i)
                ok = ok and euler == n * p and second.is_zero
    _add(checks, "homogeneous-face-block", ok)

    return _result("lemmas4", {"d": d, "n_max": n_max,
                               "leads": [",".join(map(format_rational, lead))
                                         for lead in leads]}, checks)


# ---------------------------------------------------------------------------
# the d = 2 specializations
# ---------------------------------------------------------------------------

def _reflect_params(f: Polynomial) -> Polynomial:
    """f -> F with F(u1,u2) = f(u2, 1-u1-u2); moves singular slots (1,2) to
    the trailing positions of the parameter list."""
    return f.permute((1, 0)).substitute(0, complement(2))


def suite_thm31(n_max: int = 4) -> dict:
    checks: list[dict] = []
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    w = complement(2)
    samples = [(Fraction(0), Fraction(0)), (HALF, Fraction(1))]

    for a, b in samples:
        tag = f"a={format_rational(a)},b={format_rational(b)}"
        ok = True
        for n in range(0, n_max + 1):
            explicit = _scaled(w, rodrigues_basis(ParamVector([a, b, 1]), n - 1).polys())
            explicit += [permuted_element(ParamVector([a, b, 0]), (2, 1), (0, n))]
            ok = ok and spans_equal(u_space(2, (a, b), 1, n).polys(), explicit)
        _add(checks, f"decomposition-k1[{tag}]", ok)

    for a in (Fraction(0), HALF):
        tag = f"a={format_rational(a)}"
        ok = True
        for n in range(1, n_max + 1):
            explicit = _scaled(y * w, rodrigues_basis(ParamVector([a, 1, 1]), n - 2).polys())
            explicit += [y * permuted_element(ParamVector([a, 1, 0]), (2, 1), (0, n - 1))]
            explicit += [w * rodrigues_element(ParamVector([a, 0, 1]), (n - 1, 0))]
            ok = ok and spans_equal(u_space(2, (a,), 2, n).polys(), explicit)
        _add(checks, f"decomposition-k2[{tag}]", ok)
        rec_ok = True
        for n in range(1, n_max + 1):
            rhs = _scaled(y, u_space(2, (a, Fraction(1)), 1, n - 1).polys())
            rhs += [w * rodrigues_element(ParamVector([a, 0, 1]), (n - 1, 0))]
            rec_ok = rec_ok and spans_equal(u_space(2, (a,), 2, n).polys(), rhs)
        _add(checks, f"recursion-k2[{tag}]", rec_ok)

    ok = True
    for n in range(2, n_max + 1):
        explicit = _scaled(x * y * w, rodrigues_basis(ParamVector([1, 1, 1]), n - 3).polys())
        explicit += [x * y * permuted_element(ParamVector([1, 1, 0]), (2, 1), (0, n - 2))]
        explicit += [x * w * rodrigues_element(ParamVector([1, 0, 1]), (n - 2, 0))]
        explicit += [y * w * rodrigues_element(ParamVector([0, 1, 1]), (0, n - 2))]
        ok = ok and spans_equal(u_space(2, (), 3, n).polys(), explicit)
    _add(checks, "decomposition-k3", ok)

    ok = True
    for n in range(2, n_max + 1):
        rhs = _scaled(x, u_space(2, (Fraction(1),), 2, n - 1).polys())
        rhs += [y * w * rodrigues_element(ParamVector([0, 1, 1]), (0, n - 2))]
        ok = ok and spans_equal(u_space(2, (), 3, n).polys(), rhs)
    _add(checks, "recursion-k3", ok)

    lam_choices = [(Fraction(1), Fraction(1), Fraction(1)),
                   (Fraction(2), Fraction(1), Fraction(3)),
                   (HALF, Fraction(1, 3), Fraction(5))]
    ok = True
    for l00, l10, l01 in lam_choices:
        total = l00 + l10 + l01
        got = u_space(2, (), 3, 1, vertex_lambdas=(l00, l10, l01)).polys()
        ok = ok and got == [x - l10 / total, y - l01 / total]
    _add(checks, "degree-one-redefinition", ok)

    ok = True
    for c in (Fraction(0), HALF):
        for n in range(1, n_max + 1):
            elems = _scaled(x * y, rodrigues_basis(ParamVector([1, 1, c]), n - 2).polys())
            elems += [x * rodrigues_element(ParamVector([1, 0, c]), (n - 1, 0))]
            elems += [y * rodrigues_element(ParamVector([0, 1, c]), (0, n - 1))]
            gamma_sing = ParamVector([-1, -1, c])
            ok = ok and all(eigencheck(gamma_sing, p, n) for p in elems)
            ok = ok and poly_rank(elems) == n + 1 == len(elems)
    _add(checks, "permuted-singular-pair", ok)

    probes = labeled(_monomial_polys(2, 3), "m")

    def same_gram(named, general, general_probes=probes) -> bool:
        return gram(named, probes).matrix == gram(general, general_probes).matrix

    ok = True
    for a, b in samples:
        named = TriangleGammaSingular(a, b, Fraction(2))
        general = SingularProduct(2, (a, b), 1, lam=Fraction(2))
        ok = ok and same_gram(named, general)
    _add(checks, "named-vs-general-k1", ok)

    ok = True
    for a in (Fraction(0), HALF):
        named = TriangleBetaGammaSingular(a, Fraction(2), Fraction(3))
        general = SingularProduct(2, (a,), 2, lam=Fraction(3), lam_axis=(Fraction(2),))
        ok = ok and same_gram(named, general)
    _add(checks, "named-vs-general-k2", ok)

    named = TriangleAllSingular(Fraction(2), Fraction(3), Fraction(5),
                                Fraction(7), Fraction(11))
    general = SingularProduct(2, (), 3,
                              lam_face={frozenset({0}): Fraction(2),
                                        frozenset({1}): Fraction(3)},
                              lam_vertex=(Fraction(11), Fraction(5), Fraction(7)))
    _add(checks, "named-vs-general-k3", same_gram(named, general))

    # The named edge term integrates against (1-y)^{c+1} while the general
    # construction integrates u * (...) against u^c; the two per-term masses
    # differ by (c+2)/(c+1), absorbed into the free coefficient.
    reflected = [(label, _reflect_params(f)) for label, f in probes]
    ok = True
    for c in (Fraction(0), HALF):
        named = TriangleFirstTwoSingular(c, 0, 2 * (c + 1) / (c + 2), Fraction(3))
        general = SingularProduct(2, (c,), 2, lam=Fraction(3), lam_axis=(Fraction(2),))
        ok = ok and same_gram(named, general, reflected)
    _add(checks, "named-vs-general-symmetric-variant", ok)

    ok = True
    for c in (Fraction(0), HALF):
        for lams in ((Fraction(1), Fraction(1), Fraction(1)),
                     (Fraction(2), Fraction(0), Fraction(3)),
                     (Fraction(0), Fraction(1), HALF)):
            form = TriangleFirstTwoSingular(c, *lams)
            for n in range(1, n_max + 1):
                elems = _scaled(x * y, rodrigues_basis(ParamVector([1, 1, c]), n - 2).polys())
                elems += [x * rodrigues_element(ParamVector([1, 0, c]), (n - 1, 0))]
                elems += [y * rodrigues_element(ParamVector([0, 1, c]), (0, n - 1))]
                ok = ok and _orthogonal(form, elems, _monomial_polys(2, n - 1))
    _add(checks, "symmetric-variant-orthogonality", ok)

    ok = True
    for a, b in samples:
        named = TriangleGammaSingular(a, b, Fraction(1))
        for n in range(n_max + 1):
            ok = ok and _orthogonal(named, u_space(2, (a, b), 1, n).polys(),
                                    _monomial_polys(2, n - 1))
    _add(checks, "named-k1-orthogonality", ok)
    return _result("thm31", {"n_max": n_max}, checks)


# ---------------------------------------------------------------------------
# general dimension: eigenspace ranks and Sobolev orthogonality
# ---------------------------------------------------------------------------

def suite_thm34(d: int = 2, n_max: int = 4,
                tails_override: dict[int, list[tuple]] | None = None) -> dict:
    checks: list[dict] = []
    for k in range(1, d + 2):
        tails = (tails_override or {}).get(k, default_tails(d, k))
        for tail in tails:
            tag = f"k={k},tail=({','.join(format_rational(t) for t in tail)})"
            full = ParamVector(list(tail) + [-1] * k)
            ok = True
            for n in range(n_max + 1):
                basis = u_space(d, tail, k, n)
                ok = ok and len(basis) == expected_dimension(d, n)
                ok = ok and poly_rank(basis.polys()) == len(basis)
                ok = ok and all(eigencheck(full, p, n) for p in basis.polys())
            _add(checks, f"solution-space[{tag}]", ok)

    gamma0 = default_gammas(d)[1]
    zero_sets: list[list[int]] = [[d], [0]] if d >= 2 else []
    if d >= 3:
        zero_sets += [[0, d], [1, 2]]
    restr_ok = True
    for zset in zero_sets:
        pinned = gamma0.with_values({i: 0 for i in zset})
        fparams = face_params(pinned, zset)
        for n in range(min(n_max, 3) + 1):
            block = h_space(gamma0, zset, n)
            restricted = [p.restrict(zset) for _, p in block.elements]
            if not restricted:
                continue
            dprime = d - len(zset)
            restr_ok = restr_ok and poly_rank(restricted) \
                == comb(n + dprime - 1, n) == len(restricted)
            restr_ok = restr_ok and _orthogonal(ClassicalProduct(fparams), restricted,
                                                _monomial_polys(dprime, n - 1))
    _add(checks, "face-restriction-law", restr_ok)

    indep_ok = True
    if d >= 2:
        sets = [[d]] + ([[0, d]] if d >= 3 else [])
        for zset in sets:
            for n in range(min(n_max, 3) + 1):
                std = h_space(gamma0, zset, n)
                alt = _h_space_alternate(gamma0, zset, n)
                if std.elements and alt:
                    indep_ok = indep_ok and spans_equal(std.polys(), alt)
    _add(checks, "face-block-convention-independence", indep_ok)
    return _result("thm34", {"d": d, "n_max": n_max}, checks)


def _h_space_alternate(gamma: ParamVector, zero_axes: list[int], n: int) -> list[Polynomial]:
    """Same face block built with the lowest (not highest) surviving index
    excluded; confirms the span does not depend on that convention."""
    d = gamma.d
    zset = frozenset(zero_axes)
    if d not in zset or len(zset) >= d:
        return []
    pinned = gamma.with_values({i: 0 for i in zset})
    true_zeros = sorted(zset - {d})
    free = [i for i in range(d) if i not in true_zeros]
    order = tuple([d] + true_zeros + free[1:])
    z = len(zset)
    return [permuted_element(pinned, order, (0,) * z + part)
            for part in monomials_of_degree(d - z, n)]


def suite_thm36(d: int = 2, n_max: int = 4,
                tails_override: dict[int, list[tuple]] | None = None) -> dict:
    checks: list[dict] = []
    pd_degree = 3
    for k in range(1, d + 2):
        tails = (tails_override or {}).get(k, default_tails(d, k))
        for tail in tails:
            tag = f"k={k},tail=({','.join(format_rational(t) for t in tail)})"
            product = SingularProduct(d, tail, k)
            ortho_ok = all(verify_u_space(d, tail, k, n, product)["ok"]
                           for n in range(n_max + 1))
            _add(checks, f"sobolev-orthogonality[{tag}]", ortho_ok)
            rep = gram(product, labeled(_monomial_polys(d, pd_degree), "m"))
            _add(checks, f"positive-definite[{tag}]", bool(rep.positive_definite))
    tail0 = default_tails(d, 1)[0]
    product = SingularProduct(d, tail0, 1)
    block_ok = True
    for n in range(1, n_max + 1):
        core = _scaled(complement(d),
                       rodrigues_basis(ParamVector(list(tail0) + [1]), n - 1).polys())
        top = h_space(ParamVector(list(tail0) + [0]), [d], n).polys()
        block_ok = block_ok and _orthogonal(product, core, top)
    _add(checks, "k1-block-orthogonality", block_ok)
    if d >= 2:
        lams = tuple(Fraction(j + 1, 2) for j in range(d + 1))
        product = SingularProduct(d, (), d + 1, lam_vertex=lams)
        ok = all(verify_u_space(d, (), d + 1, n, product)["ok"]
                 for n in range(min(n_max, 3) + 1))
        _add(checks, "vertex-lambda-variation", ok)
    return _result("thm36", {"d": d, "n_max": n_max}, checks)


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------

SUITE_NAMES = ("jacobi", "triangle", "rodrigue", "monomial", "lemmas4",
               "thm31", "thm34", "thm36", "all")
GAMMA_SUITES = ("triangle", "rodrigue", "monomial", "lemmas4")


def run_suite(name: str, d: int = 2, n_max: int = 3,
              gammas: list[ParamVector] | None = None) -> dict:
    if gammas is not None and name not in GAMMA_SUITES:
        raise ValueError(f"suite {name!r} does not take --gamma")
    if name == "jacobi":
        return suite_jacobi(n_max=max(n_max, 5))
    if name == "triangle":
        return suite_triangle(n_max=n_max, gammas=gammas)
    if name == "rodrigue":
        return suite_rodrigue(d=d, n_max=n_max, gammas=gammas)
    if name == "monomial":
        return suite_monomial(d=d, n_max=n_max, gammas=gammas)
    if name == "lemmas4":
        return suite_lemmas4(d=d, n_max=n_max, gammas=gammas)
    if name == "thm31":
        return suite_thm31(n_max=n_max)
    if name == "thm34":
        return suite_thm34(d=d, n_max=n_max)
    if name == "thm36":
        return suite_thm36(d=d, n_max=n_max)
    if name == "all":
        return run_all(d=d, n_max=n_max)
    raise ValueError(f"unknown suite {name!r}")


def run_all(d: int = 2, n_max: int = 3) -> dict:
    names = ["jacobi", "rodrigue", "monomial", "lemmas4", "thm34", "thm36"]
    if d == 2:
        names[1:1] = ["triangle", "thm31"]
    results = [run_suite(nm, d=d, n_max=n_max) for nm in names]
    return {"suite": "all", "params": {"d": d, "n_max": n_max},
            "ok": all(r["ok"] for r in results), "suites": results}
