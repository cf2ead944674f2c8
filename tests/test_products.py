import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from sobolex import spaces, suites
from sobolex.bases import jacobi_negative_one_beta, jacobi_negative_one_one, rodrigues_basis
from sobolex.errors import NonPositiveForm
from sobolex.linalg import positive_definite
from sobolex.moments import inner_product
from sobolex.polynomials import Polynomial, complement, monomials_up_to
from sobolex.products import (ClassicalProduct, DerivativeProduct, SingularProduct, TermList,
                              gram, labeled)
from sobolex.scalars import ParamVector
from sobolex.spaces import h_space, u_space

from oracles import (oracle_jacobi_beta_value, oracle_jacobi_both_value, oracle_named_k1_value,
                     oracle_named_k2_value, oracle_named_k3_value,
                     oracle_named_symmetric_value, oracle_positive, oracle_value,
                     to_unit_interval)

DESCRIBED = Path(__file__).with_name("golden") / "describe.json"
H = Fraction(1, 2)
X = Polynomial.variable(2, 0)
Y = Polynomial.variable(2, 1)
ONE = Polynomial.constant(2, 1)
# singular weights at d = 2 with k = 1, 2, 3 trailing -1 entries
HH1 = ParamVector([H, H, -1])
H11 = ParamVector([H, -1, -1])
ALL3 = ParamVector([-1, -1, -1])


def monoms(d, n):
    return [Polynomial.monomial(d, e) for e in monomials_up_to(d, n)]


def test_gradient_face_product_example():
    spec = SingularProduct(ParamVector([0, 0, -1]))
    assert spec.value(X, Y) == Fraction(1, 6)
    assert (spec.dim, spec.tail, spec.k) == (2, (0, 0), 1)


def test_lam_axis_is_refused_where_the_form_has_no_gradient_coefficient():
    # at k = 1 the gradient term is the main one, with coefficient 1, and at
    # k = d+1 there is no gradient term: lam_axis must be None, even all ones
    for gamma, lam_axis in ((HH1, (2, 3)), (HH1, (1, 1)), (HH1, (H, 1)), (ALL3, ()),
                            (ALL3, (1, 1))):
        with pytest.raises(ValueError, match="takes no lam_axis"):
            SingularProduct(gamma, lam_axis=lam_axis)
    assert SingularProduct(HH1).describe()["lambda_axis"] == ["1", "1"]
    # from k = 2 on, the gradient coefficient scales its term
    at = {a: SingularProduct(H11, lam_axis=(a,)).value(X, X) for a in (1, 2, 3)}
    assert at[3] - at[2] == at[2] - at[1] != 0


def test_lam_face_and_lam_vertex_need_their_terms():
    # k = 1 has no face term and no vertex term, so neither may be set there,
    # not even to all ones
    with pytest.raises(ValueError):
        SingularProduct(HH1, lam_face={frozenset({0}): 7})
    for lam_vertex in ((5, 5, 5), (1, 1, 1)):
        with pytest.raises(ValueError, match="takes no vertex coefficients"):
            SingularProduct(HH1, lam_vertex=lam_vertex)
    # at d = 3, k = 3 the differentiated axes are {1, 2}: {0}, {1, 2} and {} are no faces
    for face in ({0}, {1, 2}, set()):
        with pytest.raises(ValueError):
            SingularProduct(ParamVector([H, -1, -1, -1]), lam_face={frozenset(face): 7})
    x1 = Polynomial.variable(3, 1)
    at = {c: SingularProduct(ParamVector([H, -1, -1, -1]),
                             lam_face={frozenset({1}): c}).value(x1, x1)
          for c in (1, 2, 3)}
    assert at[3] - at[2] == at[2] - at[1] != 0


def test_a_family_the_form_does_not_take_is_refused():
    # lam below k = d+1, lam_axis for 1 < k <= d, lam_vertex at k = d+1 only;
    # any other one is refused, all ones too, before its sign is judged (lam
    # at k = d+1, even -7, was dropped without a word)
    for d in (1, 2, 3):
        for k in range(1, d + 2):
            gamma = ParamVector([H] * (d + 1 - k) + [-1] * k)
            ones = {"lam": 1, "lam_axis": (1,) * (d - k + 1), "lam_vertex": (1,) * (d + 1)}
            others = {"lam": -7, "lam_axis": (-1,) * (d - k + 1), "lam_vertex": (-1,) * (d + 1)}
            taken = {"lam": k <= d, "lam_axis": 1 < k <= d, "lam_vertex": k == d + 1}
            for name in ones:
                if taken[name]:
                    assert SingularProduct(gamma, **{name: ones[name]}).describe() \
                        == SingularProduct(gamma).describe()
                    continue
                for value in (ones[name], others[name]):
                    with pytest.raises(ValueError, match=f"takes no .*{name}"):
                        SingularProduct(gamma, **{name: value})


def _vectors(n):
    """None, then n-vectors: positive and not all ones, with a zero, with a
    negative entry, and all zero."""
    return [None, tuple(Fraction(j + 2, 3) for j in range(n)), (0,) + (2,) * (n - 1),
            (2,) * (n - 1) + (-1,), (0,) * n]


def _coefficient_grid(d, k):
    """Keyword sets for the families that the form at (d, k) takes, every
    combination of their candidate values."""
    faces = [frozenset(s) for i in range(1, k - 1)
             for s in itertools.combinations(range(d - k + 1, d), i)]
    lams = [None, Fraction(5, 2), 0, -7] if k <= d else [None]
    axes = _vectors(d - k + 1) if 1 < k <= d else [None]
    face_sets = [None] + ([{f: Fraction(7, 3) for f in faces}, {faces[0]: 0}, {faces[-1]: -1}]
                          if faces else [])
    vertices = _vectors(d + 1) if k == d + 1 else [None]
    for lam, lam_axis, lam_face, lam_vertex in itertools.product(lams, axes, face_sets, vertices):
        yield {"lam": lam, "lam_axis": lam_axis, "lam_face": lam_face, "lam_vertex": lam_vertex}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_the_constructor_accepts_exactly_the_positive_coefficients(d):
    # ... and every form it accepts has a positive definite Gram matrix on the
    # monomials of degree <= 2
    probes = monoms(d, 2)
    verdicts = Counter()
    for k in range(1, d + 2):
        gamma = ParamVector([Fraction(1, 3)] * (d + 1 - k) + [-1] * k)
        for lams in _coefficient_grid(d, k):
            positive = oracle_positive(d, k, **lams)
            verdicts[positive] += 1
            if positive:
                assert positive_definite(SingularProduct(gamma, **lams).matrix(probes)), lams
            else:
                with pytest.raises(NonPositiveForm, match="not positive"):
                    SingularProduct(gamma, **lams)
    assert verdicts[True] and verdicts[False]


def test_an_empty_coefficient_list_is_not_the_default():
    # only None means "all ones"; an empty sequence has the wrong length
    with pytest.raises(ValueError, match="lam_axis"):
        SingularProduct(H11, lam_axis=())
    for gamma in (HH1, ALL3):
        with pytest.raises(ValueError, match="vertex coefficients"):
            SingularProduct(gamma, lam_vertex=())


def test_singular_product_needs_a_trailing_minus_one():
    for entries in ([0, H, 0], [-1, H, 0]):
        with pytest.raises(ValueError, match="trailing block"):
            SingularProduct(ParamVector(entries))


def test_vertex_product_example():
    spec = SingularProduct(ALL3, lam_vertex=(Fraction(5), Fraction(7), Fraction(11)))
    assert spec.value(ONE, ONE) == 5 + 7 + 11


def test_positive_definiteness_flags():
    spec = SingularProduct(ALL3)
    assert gram(spec, labeled(monoms(2, 3), "m")).to_json()["positive_definite"] is True
    # rows that are linearly dependent give a singular Gram matrix
    rep = gram(ClassicalProduct(ParamVector([0, 0, 0])), labeled([X, Y, X + 2 * Y], "m"))
    assert rep.to_json()["positive_definite"] is False


def test_vanishing_only_at_zero():
    # <f,f> = 0 forces f = 0 when the coefficients are positive
    spec = SingularProduct(ALL3)
    rng = random.Random(5)
    for _ in range(20):
        f = Polynomial(2, {(rng.randint(0, 2), rng.randint(0, 2)):
                           rng.randint(-3, 3) for _ in range(3)})
        if not f.is_zero:
            assert spec.value(f, f) > 0


def test_singular_product_symmetry_bilinearity():
    rng = random.Random(6)
    for gamma in (ParamVector([H, 1, -1]), H11, ALL3):
        spec = SingularProduct(gamma)
        for _ in range(10):
            f, g, h = (Polynomial(2, {(rng.randint(0, 2), rng.randint(0, 2)):
                                      rng.randint(-4, 4) for _ in range(3)})
                       for _ in range(3))
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            assert spec.value(f, g) == spec.value(g, f)
            assert spec.value(f + c * h, g) \
                == spec.value(f, g) + c * spec.value(h, g)


def test_gram_all_zero_for_eigenspace():
    spec = SingularProduct(H11)
    basis = u_space(spec, 3)
    rep = gram(spec, [(str(k), p) for k, p in basis.elements],
               labeled(monoms(2, 2), "m"))
    data = rep.to_json()
    assert data["all_zero"] is True
    assert data["orthogonal_to_lower_degree"] is True


def test_gram_single_entry():
    spec = ClassicalProduct(ParamVector([0, 0, 0]))
    rep = gram(spec, labeled([ONE]))
    assert rep.matrix == [[Fraction(1)]]
    assert rep.to_json()["positive_definite"] is True


def test_derivative_product_lambda_weights():
    gamma = ParamVector([0, 0, 0])
    lam = {frozenset({0}): Fraction(2), frozenset({1}): Fraction(0)}
    spec = DerivativeProduct(gamma, 1, lam)
    f, g = X + Y, X * Y
    want = inner_product(f, g, gamma) + 2 * inner_product(
        f.partial(0), g.partial(0), gamma.shifted([1, 0, 1]))
    assert spec.value(f, g) == want


def test_derivative_product_judges_its_lambdas():
    gamma = ParamVector([0, 0, 0])
    # every key a term reads, with lambda 0 or more, is accepted
    DerivativeProduct(gamma, 2, {frozenset({0}): 0, frozenset({1}): 3, frozenset({0, 1}): H})
    # a key that no term reads: too many axes for the order, no axis, an axis
    # out of range
    for key in ({0, 1}, (), {7}, {2}):
        with pytest.raises(ValueError, match="lambda keys"):
            DerivativeProduct(gamma, 1, {frozenset(key): 5})
    # a negative lambda makes <x, x> = -599/6 at lambda_0 = -100
    for lam in (-100, Fraction(-1, 7)):
        with pytest.raises(NonPositiveForm, match="not positive"):
            DerivativeProduct(gamma, 1, {frozenset({0}): lam})
    with pytest.raises(NonPositiveForm, match="not positive"):
        DerivativeProduct(gamma, 2, {frozenset({1}): 1, frozenset({0, 1}): -1})


def test_a_coefficient_key_axis_is_an_int():
    # True == 1 == Fraction(1) == 1.0, so each would pass as the axis 1, and
    # describe() would print the key as "True", "1" or "1.0"
    for axis in (True, Fraction(1), 1.0):
        with pytest.raises(ValueError, match="key axis must be an int"):
            DerivativeProduct(ParamVector([0, 0, 0]), 1, {frozenset({axis}): 2})
        with pytest.raises(ValueError, match="key axis must be an int"):
            SingularProduct(ParamVector([0, -1, -1, -1]), lam_face={frozenset({axis}): 2})


def test_derivative_order_is_an_int():
    # True == 1, and describe() would print "order": true
    for order in (True, 1.0):
        with pytest.raises(ValueError, match="order must lie in"):
            DerivativeProduct(ParamVector([0, 0, 0]), order)


def test_a_bool_is_no_coefficient():
    with pytest.raises(ValueError):
        SingularProduct(ParamVector([0, 0, -1]), lam=True)
    with pytest.raises(ValueError):
        DerivativeProduct(ParamVector([0, 0, 0]), 1, {frozenset({0}): False})


def test_block_orthogonality_k1():
    spec = SingularProduct(ParamVector([0, 0, -1]))
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


def _class_forms():
    """Each product class at d = 1..3, k = 1..d+1; non-unit lambdas in every
    family a form takes and a zero vertex coefficient at k = d+1, each next to
    a case of the same form where every lambda is nonzero."""
    out = []
    for d in (1, 2, 3):
        gamma = ParamVector([Fraction(j, 3) for j in range(d + 1)])
        out.append(ClassicalProduct(gamma))
        for order in range(1, d + 1):
            # the two-axis key only where a term reads it (it is {0} at d = 1)
            lams = {frozenset({0}): Fraction(5, 2), frozenset({d - 1, 0}): 0}
            out.append(DerivativeProduct(gamma, order,
                                         {s: v for s, v in lams.items() if len(s) <= order}))
            out.append(DerivativeProduct(gamma, order, {frozenset({d - 1}): Fraction(2, 3)}))
        for k in range(1, d + 2):
            tail = tuple(Fraction(j + 1, 3) for j in range(d + 1 - k))
            singular = ParamVector(list(tail) + [-1] * k)
            out.append(SingularProduct(singular))
            # lam and lam_axis exist below k = d+1 (lam_axis from k = 2 on),
            # face terms from k = 3 on, vertex terms only at k = d+1
            lam = Fraction(5, 2) if k <= d else None
            lam_axis = [Fraction(i + 2, 3) for i in range(d - k + 1)] if 1 < k <= d else None
            lam_face = ({frozenset({d - 1}): Fraction(5, 4), frozenset({d - 2}): Fraction(7, 3)}
                        if k >= 3 else None)
            lam_vertex = [Fraction(j, 2) for j in range(d + 1)] if k == d + 1 else None
            out.append(SingularProduct(singular, lam=lam, lam_axis=lam_axis,
                                       lam_face=lam_face, lam_vertex=lam_vertex))
    return out


def _every_form():
    """(form, its oracle value function): the forms of `_class_forms`, then
    the paper's four d = 2 forms, with a zero lambda in each next to a case
    of the same form where every lambda is nonzero."""
    out = [(form, partial(oracle_value, form)) for form in _class_forms()]
    out += [_named(suites.named_k1, oracle_named_k1_value, H, Fraction(1, 3), Fraction(3)),
            _named(suites.named_k2, oracle_named_k2_value, H, Fraction(2), Fraction(0)),
            _named(suites.named_k3, oracle_named_k3_value,
                   Fraction(2), Fraction(3), Fraction(5), Fraction(7), 0),
            _named(suites.named_symmetric, oracle_named_symmetric_value,
                   H, Fraction(2), 0, Fraction(3)),
            _named(suites.named_k2, oracle_named_k2_value, Fraction(1, 3), Fraction(2),
                   Fraction(3)),
            _named(suites.named_k3, oracle_named_k3_value,
                   Fraction(2), Fraction(3), Fraction(5), Fraction(7), Fraction(11)),
            _named(suites.named_symmetric, oracle_named_symmetric_value,
                   Fraction(1, 3), Fraction(2), Fraction(5, 3), Fraction(3))]
    return out


FORMS = _every_form()


def _ids(forms) -> list[str]:
    """The describe() payload of each form, numbered from its second case on
    (the paper's d = 2 forms describe only their kind, with an empty
    normalization)."""
    seen = Counter()
    out = []
    for form, _ in forms:
        key = json.dumps(form.describe(), sort_keys=True)
        seen[key] += 1
        out.append(key if seen[key] == 1 else f"{key}#{seen[key]}")
    return out


def test_describe_is_the_recorded_payload():
    # the CLI builds no form with lam_axis, lam_face or derivative lambdas, so
    # no golden digest pins what describe() prints for them; the payloads were
    # recorded once and are never rewritten
    assert [form.describe() for form in _class_forms()] == json.loads(DESCRIBED.read_text())


@pytest.mark.parametrize("form, oracle", FORMS, ids=_ids(FORMS))
def test_value_and_gram_match_oracle(form, oracle):
    rng = random.Random(json.dumps(form.describe(), sort_keys=True))
    d = form.dim
    # the last rows over the pairwise coprime denominators 7, 11 and 13
    rows = [_random_poly(rng, d) for _ in range(3)] + [Polynomial.constant(d, 2),
                                                       Polynomial.zero(d)]
    cols = [_random_poly(rng, d) for _ in range(3)] + [Polynomial.variable(d, d - 1)]
    rows += [Fraction(1, q) * _random_poly(rng, d) for q in (7, 11, 13)]
    want = [[oracle(f, g) for g in cols] for f in rows]
    assert form.matrix(rows, cols) == want
    # every lambda times 17/19, a denominator that no other factor has
    scaled = TermList(d, form.spec, [t._replace(lam=t.lam * Fraction(17, 19)) for t in form.terms])
    assert scaled.matrix(rows, cols) == [[Fraction(17, 19) * v for v in line] for line in want]
    for f, g in zip(rows, cols):
        assert form.value(f, g) == oracle(f, g)
    # the symmetric path (upper triangle, mirrored) against the general one,
    # which pairs every entry and is symmetric all the same
    both = form.matrix(rows, rows)
    assert form.matrix(rows) == both == [list(col) for col in zip(*both)]


@pytest.mark.parametrize("form, oracle", FORMS, ids=_ids(FORMS))
def test_gram_report_positive_definite_is_the_linalg_verdict(form, oracle):
    # on independent rows, and on the same rows with a dependent one added
    d = form.dim
    rows = monoms(d, 2)
    for case in (rows, rows + [rows[1] + 2 * rows[-1]]):
        data = gram(form, labeled(case)).to_json()
        assert data["positive_definite"] is positive_definite(form.matrix(case))
    assert data["positive_definite"] is False


@pytest.mark.parametrize("form, oracle", FORMS, ids=_ids(FORMS))
def test_orthogonal_is_an_all_zero_matrix(form, oracle):
    # p has every mixed derivative nonzero, so each form pairs it with itself
    # to a nonzero value; the zero row goes first, so that a nonzero entry
    # in a later row must be read
    rng = random.Random(json.dumps(form.describe(), sort_keys=True))
    d = form.dim
    p = Polynomial.constant(d, 1)
    for i in range(d):
        p = p * (Polynomial.variable(d, i) + 1)
    zero = Polynomial.zero(d)
    cases = [([zero], [p]), ([zero, p], [p]), ([p], [zero, zero]),
             ([_random_poly(rng, d) for _ in range(3)], [_random_poly(rng, d) for _ in range(2)])]
    got = [form.orthogonal(rows, cols) for rows, cols in cases]
    assert got == [all(v == 0 for line in form.matrix(rows, cols) for v in line)
                   for rows, cols in cases]
    assert got[:3] == [True, False, True]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_orthogonal_below_n_is_orthogonal_to_degree_n_minus_1_not_n(d):
    # degree-n Rodrigues elements under the classical form, and U_n under the
    # Sobolev form at k = 1, 2 and d+1, are orthogonal to every degree below
    # n, and not to degree n
    gamma = ParamVector([H] * (d + 1))
    cases = [(ClassicalProduct(gamma), partial(rodrigues_basis, gamma))]
    for k in sorted({1, 2, d + 1}):
        form = SingularProduct(ParamVector([H] * (d + 1 - k) + [-1] * k))
        cases.append((form, partial(u_space, form)))
    for form, basis in cases:
        for n in range(4):
            polys = basis(n).polys()
            assert form.orthogonal_below(polys, n), (form.describe(), n)
            assert not form.orthogonal_below(polys, n + 1), (form.describe(), n)


def test_every_term_has_a_nonzero_lambda_in_some_case():
    # the evaluator skips a zero-lambda term, so a term reaches its oracle only
    # in a case where its lambda is nonzero; cases of one form list their
    # terms in the same order
    cases: dict[tuple, list[list[Fraction]]] = {}
    for form, _ in FORMS:
        key = (form.spec["kind"], form.dim, getattr(form, "k", None), getattr(form, "order", None))
        cases.setdefault(key, []).append([t.lam for t in form.terms])
    for key, lams in cases.items():
        assert len({len(case) for case in lams}) == 1, key
        assert all(any(term) for term in zip(*lams)), key


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
            make = partial(SingularProduct, ParamVector([-1, -1]),
                           lam_vertex=(c * lams[1], c * lams[0]))
            interval = partial(oracle_jacobi_both_value, *lams)
        else:
            c = 4 * (beta + 1) / (beta + 2)
            make = partial(SingularProduct, ParamVector([beta, -1]), lam=c * lams[0])
            interval = partial(oracle_jacobi_beta_value, beta, lams[0])
        if not any(lams):
            # the constants have norm 0 then, so neither form is an inner product
            with pytest.raises(NonPositiveForm):
                make()
            continue
        form = make()
        pulled = [to_unit_interval(p) for p in polys]
        assert gram(form, labeled(pulled)).matrix == \
            [[c * interval(f, g) for g in polys] for f in polys]


def test_gram_report_flags():
    form = ClassicalProduct(ParamVector([0, 0, 0]))
    flags = ("all_zero", "diagonal", "positive_definite")

    def read(*args):
        data = gram(form, *args).to_json()
        return [data[f] for f in flags], data.get("orthogonal_to_lower_degree")

    assert read(labeled([X, Y])) == ([False, False, True], None)
    assert read(labeled([ONE, ONE - 2 * X - Y])) == ([False, True, True], None)
    # diagonal and positive_definite are null for a Gram against separate
    # columns, square or not, and for an empty row list
    assert read(labeled([X]), labeled([Y, ONE])) == ([False, None, None], False)
    assert read(labeled([ONE - 3 * X]), labeled([ONE])) == ([True, None, None], True)
    assert read([]) == ([True, None, None], None)
    assert read([], labeled([ONE])) == ([True, None, None], True)
    # all_zero reads every row: here the first one is zero and the second is not
    zero = Polynomial.zero(2)
    assert read(labeled([zero, X])) == ([False, True, False], None)
    assert read(labeled([zero, X]), labeled([ONE])) == ([False, None, None], False)


def test_evaluator_checks_dimensions():
    spec = SingularProduct(H11)
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
    report = spaces.verify_u_space(SingularProduct(H11), 3)
    assert not report["ok"] and not report["orthogonal_to_lower_degree"]
    witnesses = [f for f in report["failures"] if f["check"] == "gram-vs-lower-degree"]
    assert witnesses == [{"check": "gram-vs-lower-degree", "element": tampered["key"],
                          "counterexample": tampered["poly"]}]
