import json
import random
from fractions import Fraction
from functools import partial

import pytest

from sobolex import spaces, suites
from sobolex.bases import jacobi_negative_one_beta, jacobi_negative_one_one, rodrigues_basis
from sobolex.moments import inner_product
from sobolex.polynomials import Polynomial, complement, monomials_up_to
from sobolex.products import (ClassicalProduct, DerivativeProduct, SingularProduct, GramReport,
                              gram, labeled)
from sobolex.spaces import h_space, u_space
from sobolex.weighted import ParamVector

from oracles import (oracle_jacobi_beta_value, oracle_jacobi_both_value, oracle_named_k1_value,
                     oracle_named_k2_value, oracle_named_k3_value,
                     oracle_named_symmetric_value, oracle_value, to_unit_interval)

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


def test_derivative_product_lambda_weights():
    gamma = ParamVector([0, 0, 0])
    lam = {frozenset({0}): Fraction(2), frozenset({1}): Fraction(0)}
    spec = DerivativeProduct(gamma, 1, lam)
    f, g = X + Y, X * Y
    want = inner_product(f, g, gamma) + 2 * inner_product(
        f.partial(0), g.partial(0), gamma.shifted([1, 0, 1]))
    assert spec.value(f, g) == want


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


def _named(form, oracle, *params):
    """One of the paper's d = 2 forms of `sobolex.suites` and its oracle, at `params`."""
    return form(*params), partial(oracle, *params)


def _every_form():
    """(form, its oracle value function): each product class at d = 1..3,
    k = 1..d+1, then the paper's four d = 2 forms; non-unit lambdas, and a
    zero entry in lam_axis, lam_face and lam_vertex wherever the form has one."""
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
    out = [(form, partial(oracle_value, form)) for form in out]
    out += [_named(suites.named_k1, oracle_named_k1_value, H, Fraction(1, 3), Fraction(3)),
            _named(suites.named_k2, oracle_named_k2_value, H, Fraction(2), Fraction(0)),
            _named(suites.named_k3, oracle_named_k3_value,
                   Fraction(2), Fraction(3), Fraction(5), Fraction(7), 0),
            _named(suites.named_symmetric, oracle_named_symmetric_value,
                   H, Fraction(2), 0, Fraction(3))]
    return out


FORMS = _every_form()


@pytest.mark.parametrize("form, oracle", FORMS,
                         ids=[json.dumps(form.describe()) for form, _ in FORMS])
def test_value_and_gram_match_oracle(form, oracle):
    rng = random.Random(json.dumps(form.describe()))
    d = form.dim
    rows = [_random_poly(rng, d) for _ in range(3)] + [Polynomial.constant(d, 2),
                                                       Polynomial.zero(d)]
    cols = [_random_poly(rng, d) for _ in range(3)] + [Polynomial.variable(d, d - 1)]
    rep = gram(form, labeled(rows), labeled(cols))
    assert rep.matrix == [[oracle(f, g) for g in cols] for f in rows]
    for f, g in zip(rows, cols):
        assert form.value(f, g) == oracle(f, g)
    # the symmetric path (upper triangle, mirrored) against the general one
    assert gram(form, labeled(rows)).matrix == gram(form, labeled(rows), labeled(rows)).matrix


# -- the one-variable forms on [-1,1] are the d = 1 forms on T^1 --------------

def _interval_cases():
    """(beta or None, lambdas, polynomials on [-1,1]): the jacobi suite's
    families and coefficients, then random polynomials, beta > -1, lambdas >= 0."""
    degrees = range(6)
    for b in (Fraction(0), H, Fraction(2)):
        fam = [jacobi_negative_one_beta(n, b) for n in degrees]
        for lam in (Fraction(1), Fraction(2), Fraction(1, 3)):
            yield b, (lam,), fam
    for l1, l2 in ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(1)), (H, Fraction(3))):
        yield None, (l1, l2), [jacobi_negative_one_one(n, l1, l2) for n in degrees]
    rng = random.Random(1)
    for _ in range(20):
        polys = [_random_poly(rng, 1, degree=5) for _ in range(3)]
        lams = tuple(Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(2))
        yield Fraction(rng.randint(-5, 20), rng.randint(6, 12)), lams[:1], polys
        yield None, lams, polys


def test_d1_singular_forms_are_the_interval_forms_scaled():
    # x = 2u-1 doubles each derivative, and the T^1 gradient term is normalized
    # by the mass of (b, 0) instead of (b+1, 0): the d = 1 Gram is exactly
    # c = 4(b+1)/(b+2) times the interval one for (b, -1), and 4 times for
    # (-1, -1), whose vertex e_0 is x = -1
    for beta, lams, polys in _interval_cases():
        if beta is None:
            c = Fraction(4)
            form = SingularProduct(1, (), 2, lam_vertex=(c * lams[1], c * lams[0]))
            interval = partial(oracle_jacobi_both_value, *lams)
        else:
            c = 4 * (beta + 1) / (beta + 2)
            form = SingularProduct(1, (beta,), 1, lam=c * lams[0])
            interval = partial(oracle_jacobi_beta_value, beta, lams[0])
        pulled = [to_unit_interval(p) for p in polys]
        assert gram(form, labeled(pulled)).matrix == \
            [[c * interval(f, g) for g in polys] for f in polys]


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
