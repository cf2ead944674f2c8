import json
import random
from fractions import Fraction

import pytest

from sobolex import spaces
from sobolex.bases import monomial_element, rodrigues_basis
from sobolex.errors import DependentInput
from sobolex.moments import inner_product
from sobolex.polynomials import Polynomial, complement, monomials_up_to
from sobolex.products import (ClassicalProduct, DerivativeProduct,
                              JacobiSingularBeta, JacobiSingularBoth,
                              SingularProduct, TriangleAllSingular,
                              TriangleBetaGammaSingular, TriangleFirstTwoSingular,
                              TriangleGammaSingular, GramReport, gram, labeled,
                              orthogonalize)
from sobolex.spaces import h_space, u_space
from sobolex.weighted import ParamVector

from oracles import oracle_value

H = Fraction(1, 2)
X = Polynomial.variable(2, 0)
Y = Polynomial.variable(2, 1)
ONE = Polynomial.constant(2, 1)


def monoms(d, n):
    return [Polynomial.monomial(d, e) for e in monomials_up_to(d, n)]


def test_gradient_face_product_example():
    spec = SingularProduct(2, (Fraction(0), Fraction(0)), 1)
    assert spec.value(X, Y) == Fraction(1, 6)
    assert spec.tail + (-1,) * spec.k == (0, 0, -1)


def test_lam_axis_at_k1_must_be_all_ones():
    # at k = 1 the gradient term has coefficient 1, so no other lam_axis is taken
    for lam_axis in ((2, 3), (1, 0), (H, 1)):
        with pytest.raises(ValueError):
            SingularProduct(2, (H, H), 1, lam_axis=lam_axis)
    default = SingularProduct(2, (H, H), 1)
    assert default.describe()["lambda_axis"] == ["1", "1"]
    assert SingularProduct(2, (H, H), 1, lam_axis=(1, 1)).describe() == default.describe()
    # from k = 2 on, the gradient coefficient scales its term
    at = {a: SingularProduct(2, (H,), 2, lam_axis=(a,)).value(X, X) for a in (0, 1, 2)}
    assert at[2] - at[1] == at[1] - at[0] != 0


def test_lam_face_and_lam_vertex_need_their_terms():
    # k = 1 has no face term and no vertex term, so neither may be set there
    with pytest.raises(ValueError):
        SingularProduct(2, (H, H), 1, lam_face={frozenset({0}): 7})
    with pytest.raises(ValueError):
        SingularProduct(2, (H, H), 1, lam_vertex=(5, 5, 5))
    default = SingularProduct(2, (H, H), 1)
    assert SingularProduct(2, (H, H), 1, lam_vertex=(1, 1, 1)).describe() == default.describe()
    # at d = 3, k = 3 the differentiated axes are {1, 2}: {0}, {1, 2} and {} are no faces
    for face in ({0}, {1, 2}, set()):
        with pytest.raises(ValueError):
            SingularProduct(3, (H,), 3, lam_face={frozenset(face): 7})
    x1 = Polynomial.variable(3, 1)
    at = {c: SingularProduct(3, (H,), 3, lam_face={frozenset({1}): c}).value(x1, x1)
          for c in (0, 1, 2)}
    assert at[2] - at[1] == at[1] - at[0] != 0


def test_vertex_product_example():
    spec = SingularProduct(2, (), 3,
                           lam_vertex=(Fraction(5), Fraction(7), Fraction(11)))
    assert spec.value(ONE, ONE) == 5 + 7 + 11


def test_positive_definiteness_flags():
    spec = SingularProduct(2, (), 3)
    rep = gram(spec, labeled(monoms(2, 3), "m"))
    assert rep.positive_definite
    degenerate = SingularProduct(2, (), 3, lam_vertex=(0, 0, 0))
    rep = gram(degenerate, labeled(monoms(2, 2), "m"))
    assert rep.positive_definite is False
    assert not degenerate.is_valid
    assert spec.is_valid


def test_vanishing_only_at_zero():
    # <f,f> = 0 forces f = 0 when the coefficients are positive
    spec = SingularProduct(2, (), 3)
    rng = random.Random(5)
    for _ in range(20):
        f = Polynomial(2, {(rng.randint(0, 2), rng.randint(0, 2)):
                           rng.randint(-3, 3) for _ in range(3)})
        if not f.is_zero:
            assert spec.value(f, f) > 0


def test_singular_product_symmetry_bilinearity():
    rng = random.Random(6)
    for k, tail in ((1, (H, Fraction(1))), (2, (H,)), (3, ())):
        spec = SingularProduct(2, tail, k)
        for _ in range(10):
            f, g, h = (Polynomial(2, {(rng.randint(0, 2), rng.randint(0, 2)):
                                      rng.randint(-4, 4) for _ in range(3)})
                       for _ in range(3))
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            assert spec.value(f, g) == spec.value(g, f)
            assert spec.value(f + c * h, g) \
                == spec.value(f, g) + c * spec.value(h, g)


def test_gram_all_zero_for_eigenspace():
    spec = SingularProduct(2, (H,), 2)
    basis = u_space(2, (H,), 2, 3)
    rep = gram(spec, [(str(k), p) for k, p in basis.elements],
               labeled(monoms(2, 2), "m"))
    assert rep.all_zero
    data = rep.to_json()
    assert data["orthogonal_to_lower_degree"] is True


def test_gram_single_entry():
    spec = ClassicalProduct(ParamVector([0, 0, 0]))
    rep = gram(spec, labeled([ONE]))
    assert rep.matrix == [[Fraction(1)]]
    assert rep.positive_definite


def test_orthogonalize_matches_monic_companion():
    gamma = ParamVector([0, 0, 0])
    spec = ClassicalProduct(gamma)
    out = orthogonalize(spec, [ONE, X])
    assert out == [ONE, X - Fraction(1, 3)]
    assert out[1] == monomial_element(gamma, (1, 0))


def test_orthogonalize_keeps_orthogonal_input():
    gamma = ParamVector([0, 0, 0])
    spec = ClassicalProduct(gamma)
    basis = [ONE, monomial_element(gamma, (1, 0))]
    assert orthogonalize(spec, basis) == basis


def test_orthogonalize_dependent_input():
    spec = ClassicalProduct(ParamVector([0, 0, 0]))
    with pytest.raises(DependentInput):
        orthogonalize(spec, [X, X])


def test_orthogonalize_under_sobolev_product():
    spec = SingularProduct(2, (), 3)
    basis = u_space(2, (), 3, 3)
    out = orthogonalize(spec, basis.polys())
    rep = gram(spec, labeled(out))
    assert rep.diagonal and all(rep.matrix[i][i] > 0 for i in range(len(out)))


def test_derivative_product_lambda_weights():
    gamma = ParamVector([0, 0, 0])
    lam = {frozenset({0}): Fraction(2), frozenset({1}): Fraction(0)}
    spec = DerivativeProduct(gamma, 1, lam)
    f, g = X + Y, X * Y
    want = inner_product(f, g, gamma) + 2 * inner_product(
        f.partial(0), g.partial(0), gamma.shifted([1, 0, 1]))
    assert spec.value(f, g) == want


def test_one_variable_sobolev_products():
    fam_b = JacobiSingularBeta(H, Fraction(2))
    t = Polynomial.variable(1, 0)
    # lam f(1)g(1) + normalized integral of (1+x)^{3/2} f'g'
    assert fam_b.value(t, t) > 0
    both = JacobiSingularBoth(1, 1)
    assert both.value(t, Polynomial.constant(1, 1)) == 0
    assert both.value(t, t) > 0


def test_block_orthogonality_k1():
    tail = (Fraction(0), Fraction(0))
    spec = SingularProduct(2, tail, 1)
    for n in range(1, 4):
        core = [complement(2) * p
                for p in rodrigues_basis(ParamVector([0, 0, 1]), n - 1).polys()]
        top = h_space(ParamVector([0, 0, 0]), [2], n).polys()
        assert all(spec.value(p, q) == 0 for p in core for q in top)


# -- the term evaluator against the pair-by-pair oracle -----------------------

def _random_poly(rng, d, degree=3, terms=4):
    return Polynomial(d, {tuple(rng.randint(0, degree) for _ in range(d)):
                          Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                          for _ in range(terms)})


def _every_form():
    """Each product class; d = 1..3, k = 1..d+1; non-unit lambdas, and a zero
    entry in lam_axis, lam_face and lam_vertex wherever the form has one."""
    out = []
    for d in (1, 2, 3):
        gamma = ParamVector([Fraction(j, 3) for j in range(d + 1)])
        out.append(ClassicalProduct(gamma))
        for order in range(1, d + 1):
            out.append(DerivativeProduct(gamma, order, {frozenset({0}): Fraction(5, 2),
                                                        frozenset({d - 1, 0}): 0}))
        for k in range(1, d + 2):
            tail = tuple(Fraction(j + 1, 3) for j in range(d + 1 - k))
            out.append(SingularProduct(d, tail, k))
            # at k = 1 the gradient coefficients are fixed to 1
            lam_axis = [Fraction(i + 2, 3) for i in range(d - k + 1)] if k > 1 else None
            if lam_axis:
                lam_axis[0] = 0
            # face terms exist from k = 3 on, vertex terms only at k = d+1
            lam_face = ({frozenset({d - 1}): 0, frozenset({d - 2}): Fraction(7, 3)}
                        if k >= 3 else None)
            lam_vertex = [Fraction(j, 2) for j in range(d + 1)] if k == d + 1 else None
            out.append(SingularProduct(d, tail, k, lam=Fraction(5, 2), lam_axis=lam_axis,
                                       lam_face=lam_face, lam_vertex=lam_vertex))
    out += [TriangleGammaSingular(H, Fraction(1, 3), Fraction(3)),
            TriangleBetaGammaSingular(H, Fraction(2), Fraction(0)),
            TriangleAllSingular(Fraction(2), Fraction(3), Fraction(5), Fraction(7), 0),
            TriangleFirstTwoSingular(H, Fraction(2), 0, Fraction(3)),
            JacobiSingularBeta(H, Fraction(2)),
            JacobiSingularBoth(Fraction(2), Fraction(0))]
    return out


@pytest.mark.parametrize("form", _every_form(), ids=lambda p: json.dumps(p.describe()))
def test_value_and_gram_match_oracle(form):
    rng = random.Random(json.dumps(form.describe()))
    d = form.dim
    rows = [_random_poly(rng, d) for _ in range(3)] + [Polynomial.constant(d, 2),
                                                       Polynomial.zero(d)]
    cols = [_random_poly(rng, d) for _ in range(3)] + [Polynomial.variable(d, d - 1)]
    rep = gram(form, labeled(rows), labeled(cols))
    assert rep.matrix == [[oracle_value(form, f, g) for g in cols] for f in rows]
    for f, g in zip(rows, cols):
        assert form.value(f, g) == oracle_value(form, f, g)
    # the symmetric path (upper triangle, mirrored) against the general one
    assert gram(form, labeled(rows)).matrix == gram(form, labeled(rows), labeled(rows)).matrix


def test_gram_report_flags():
    square = GramReport({}, ["a", "b"], ["a", "b"], [[Fraction(2), Fraction(1)],
                                                     [Fraction(1), Fraction(2)]])
    assert square.symmetric and square.positive_definite and not square.diagonal
    skew = GramReport({}, ["a", "b"], ["a", "b"], [[Fraction(2), Fraction(1)],
                                                   [Fraction(0), Fraction(2)]])
    assert not skew.symmetric and skew.positive_definite is None


def test_evaluator_checks_dimensions():
    spec = SingularProduct(2, (H,), 2)
    with pytest.raises(ValueError):
        spec.value(X, Polynomial.variable(3, 0))
    with pytest.raises(ValueError):
        gram(spec, labeled([X]), labeled([Polynomial.variable(1, 0)]))


def test_tampered_u_space_element_is_the_gram_witness(monkeypatch):
    real = spaces.u_space
    tampered = {}

    def u_space_with_one_bad_element(*args, **kwargs):
        basis = real(*args, **kwargs)
        key, p = basis.elements[1]
        exp, _ = p.sorted_terms()[0]
        basis.elements[1] = (key, p + Polynomial.monomial(p.dim, exp, 1))
        tampered.update(key=str(key), poly=basis.elements[1][1].to_json())
        return basis

    monkeypatch.setattr(spaces, "u_space", u_space_with_one_bad_element)
    report = spaces.verify_u_space(2, (H,), 2, 3)
    assert not report["ok"] and not report["orthogonal_to_lower_degree"]
    witnesses = [f for f in report["failures"] if f["check"] == "gram-vs-lower-degree"]
    assert witnesses == [{"check": "gram-vs-lower-degree", "element": tampered["key"],
                          "counterexample": tampered["poly"]}]
