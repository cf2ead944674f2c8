import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import comb

import pytest

from sobolex import spaces
from sobolex.bases import eigencheck, monomial_basis
from sobolex.cli import main
from sobolex.errors import NonPositiveForm
from sobolex.linalg import poly_rank, positive_definite, spans_equal
from sobolex.moments import inner_product, vertex_eval
from sobolex.polynomials import Polynomial, monomial_polys, monomials_up_to
from sobolex.products import SingularProduct, TermList
from sobolex.scalars import ParamVector, face_params
from sobolex.spaces import (expected_dimension, h_space, u_space,
                            verify_u_space)
from sobolex.suites import _singular_weights

from oracles import constrained_indices

H = Fraction(1, 2)


def _singular(tail, k):
    """The weight (tail, -1, ..., -1) with k trailing -1 entries."""
    return ParamVector(list(tail) + [-1] * k)


def _form(tail, k, **lams):
    """The Sobolev form of that weight; u_space reads the weight off it."""
    return SingularProduct(_singular(tail, k), **lams)


def test_h_space_dimension_formula():
    for d in (2, 3):
        gamma = ParamVector([H] * (d + 1))
        for zset in ([0], [d], [0, d] if d == 3 else [0]):
            z = len(set(zset))
            for n in range(4):
                block = h_space(gamma, zset, n)
                want = comb(n + d - z - 1, n) if z <= d - 1 else 0
                assert len(block) == want
                assert poly_rank(block.polys()) == want


def test_h_space_keys_vanish_on_the_face_slots():
    # a coordinate face zeroes its own slots of nu; a face through the
    # hyperplane the first len(zset) slots, which hold 1-|x| and the true zeros
    for d in (1, 2, 3):
        gamma = ParamVector([H] * (d + 1))
        for size in range(d + 2):
            for zset in itertools.combinations(range(d + 1), size):
                slots = range(size) if d in zset else zset
                for n in range(5):
                    want = constrained_indices(d, n, slots) if size < d else []
                    assert [nu for nu, _ in h_space(gamma, zset, n).elements] == want, (zset, n)


def test_h_space_triangle_hypotenuse_block():
    block = h_space(ParamVector([H, 1, 0]), [2], 3)
    assert len(block) == 1


def test_h_space_empty_cases():
    gamma = ParamVector([0, 0, 0])
    assert len(h_space(gamma, [0, 1], 2)) == 0
    assert len(h_space(gamma, [0], -1)) == 0
    with pytest.raises(ValueError):
        h_space(gamma, [5], 1)
    # a bool index would label the basis "h[True]"
    with pytest.raises(ValueError, match="bad face index"):
        h_space(gamma, [True], 2)


@pytest.mark.parametrize("zset", [[0, 1], [0, 1, 2]])
def test_h_space_of_a_face_below_dimension_one_is_empty_and_judges_its_degree(zset):
    # a vertex, or all of T^2 zeroed: no block at any degree, and a degree that
    # is not an int is refused there as on every other face
    gamma = ParamVector([0, 0, 0])
    for n in (0, 1, 2):
        assert h_space(gamma, zset, n).elements == [], n
    for n in (Fraction(5, 2), True, "x"):
        with pytest.raises(ValueError, match="degree"):
            h_space(gamma, zset, n)


def test_h_space_restriction_is_orthogonal_on_face():
    gamma = ParamVector([H, 1, Fraction(1, 3), 0])
    for zset in ([3], [0], [1, 3]):
        pinned = gamma.with_values({i: 0 for i in zset})
        fp = face_params(pinned, zset)
        for n in range(3):
            block = h_space(gamma, zset, n)
            restricted = [p.restrict(zset) for p in block.polys()]
            dprime = 3 - len(zset)
            assert poly_rank(restricted) == comb(n + dprime - 1, n)
            for r in restricted:
                for e in monomials_up_to(dprime, n - 1):
                    assert inner_product(r, Polynomial.monomial(dprime, e), fp) == 0


def test_u_space_block_structure():
    basis = u_space(_form((), 3), 3)
    tags = [key[0] for key, _ in basis.elements]
    assert tags == ["core", "block", "block", "block"]
    assert len(basis) == comb(3 + 1, 3) == 4


@pytest.mark.parametrize("lams", [(2, 3), (1, 2, 3), (1, 2, 3, 5)])
def test_u_space_degree_one_is_shifted_by_the_form_vertex_coefficients(lams, capsys):
    # at k = d+1 the form's lam redefines U_1 as {x_j - lam_j / sum(lam)}, and
    # `basis --family u --lambda-vertex` prints the same space
    d = len(lams) - 1
    basis = u_space(_form((), d + 1, lam_vertex=lams), 1)
    assert basis.polys() == [Polynomial.variable(d, j - 1) - Fraction(lams[j], sum(lams))
                             for j in range(1, d + 1)]
    assert main(["basis", "--family", "u", "--d", str(d), "--n", "1",
                 "--gamma", ",".join(["-1"] * (d + 1)),
                 "--lambda-vertex", ",".join(map(str, lams))]) == 0
    assert json.loads(capsys.readouterr().out) == basis.to_json()


def test_u_space_input_validation():
    # vertex coefficients that sum to zero leave U_1 undefined; they have a
    # negative entry or no positive one, so the form refuses them itself
    for lams in ((1, -1, 0), (0, 0, 0)):
        with pytest.raises(NonPositiveForm, match="vertex coefficients"):
            _form((), 3, lam_vertex=lams)
    # the form checks its vertex coefficients when it is built, whatever the
    # degree: none below k = d+1, always d+1 of them, and an empty list is
    # not the default
    for tail, k, lams in (((0,), 2, (5, 7, 9)), ((), 3, (1, 2)), ((), 3, ())):
        with pytest.raises(ValueError, match="vertex coefficients"):
            _form(tail, k, lam_vertex=lams)


def test_verify_u_space_examples():
    for tail in ((Fraction(0), Fraction(0)), (H, Fraction(1))):
        for n in range(5):
            assert verify_u_space(_form(tail, 1), n)["ok"]
    for n in range(4):
        assert verify_u_space(_form((0, 0), 2), n)["ok"]
    for n in range(5):
        rep = verify_u_space(_form((), 3), n)
        assert rep["ok"]
        if n >= 2:
            assert rep["vertices_vanish"] is True


def test_u_space_vertices_vanish_for_all_singular():
    for n in range(2, 5):
        for p in u_space(_form((), 3), n).polys():
            assert all(vertex_eval(p, j) == 0 for j in range(3))


def test_u_space_expected_dimension():
    assert expected_dimension(2, 3) == 4
    assert expected_dimension(3, 4) == 15
    for d, k, n in ((2, 1, 4), (2, 2, 4), (3, 3, 3), (3, 4, 3)):
        tail = tuple(H for _ in range(d + 1 - k))
        basis = u_space(_form(tail, k), n)
        assert len(basis) == expected_dimension(d, n)
        assert poly_rank(basis.polys()) == len(basis)


def test_u_space_one_dimension():
    # d = 1 collapses onto the degenerate interval families
    for k in (1, 2):
        tail = (H,) if k == 1 else ()
        for n in range(4):
            rep = verify_u_space(_form(tail, k), n)
            assert rep["ok"]


def test_face_block_convention_independence():
    # the excluded-coordinate choice in the hyperplane construction does not
    # change the span
    gamma = ParamVector([H, 1, Fraction(1, 3), 0])
    std = h_space(gamma, [3], 2)
    pinned = gamma.with_values({3: 0})
    from sobolex.bases import permuted_element
    alt = [permuted_element(pinned, (3, 1, 2), (0,) + part)
           for part in [(0, 2), (1, 1), (2, 0)]]
    assert spans_equal(std.polys(), alt)


def test_detectors_flag_tampered_eigenspace():
    # guard against vacuous verification: a corrupted family must fail both
    # the eigenvalue and the orthogonality detectors
    from sobolex.products import gram, labeled
    full = ParamVector([H, -1, -1])
    spec = SingularProduct(full)
    tampered = u_space(spec, 3).polys()
    tampered[0] = Polynomial.monomial(2, (3, 0))
    assert not all(eigencheck(full, p, 3) for p in tampered)
    lower = [Polynomial.monomial(2, e) for e in monomials_up_to(2, 2)]
    rep = gram(spec, labeled(tampered), labeled(lower))
    assert rep.to_json()["all_zero"] is False


def test_a_report_that_fails_every_check_keeps_the_recorded_order(monkeypatch):
    # U_3 of (-1, -1, -1) with a constant added to one element, x added to
    # another and the first one repeated fails all four checks; the report,
    # canonical as `sobolex eigen` prints it, is the one recorded before its
    # flags were derived from the failure list.  Its lower-degree verdict and
    # failing elements are read off one Gram, not one more per element.
    real, real_matrix, grams = spaces.u_space, SingularProduct.matrix, []

    def tampered(form, n):
        basis = real(form, n)
        (k1, p1), (k2, p2) = basis.elements[1:3]
        basis.elements[1] = (k1, p1 + 1)
        basis.elements[2] = (k2, p2 + Polynomial.variable(2, 0))
        basis.elements.append(basis.elements[0])
        return basis

    def counted(self, rows, cols=None):
        grams.append(len(rows))
        return real_matrix(self, rows, cols)

    monkeypatch.setattr(spaces, "u_space", tampered)
    monkeypatch.setattr(SingularProduct, "matrix", counted)
    report = verify_u_space(_form((), 3), 3)
    assert grams == [5]
    one, two = "('block', (1, 1, 0), (0, 1))", "('block', (1, 0, 1), (1, 0))"
    assert [(f["check"], f.get("element")) for f in report["failures"]] == [
        ("eigen", one), ("eigen", two), ("rank 4 of 5 elements, expected 4", None),
        ("gram-vs-lower-degree", one), ("gram-vs-lower-degree", two),
        ("vertex-vanishing", one), ("vertex-vanishing", two)]
    flags = ("eigen_ok", "rank_ok", "orthogonal_to_lower_degree", "vertices_vanish", "ok")
    assert [report[f] for f in flags] == [False] * 5
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() \
        == "e998a322c958c6c619368f4ebf81fa0fddb3ba657c69a1e59912057be62406f2"


def test_scaling_beyond_default_ranges():
    # d = 4 across every singular depth, and degree 6 on the triangle
    for k in range(1, 6):
        tail = tuple(H for _ in range(5 - k))
        for n in range(3):
            assert verify_u_space(_form(tail, k), n)["ok"]
    for n in (5, 6):
        assert verify_u_space(_form((H,), 2), n)["ok"]


def test_eigenvalue_shift_with_k():
    # the eigenvalue drops by n*k as the trailing exponents turn singular
    d, n = 2, 3
    for k, tail in ((1, (H, H)), (2, (H,)), (3, ())):
        full = _singular(tail, k)
        for p in u_space(SingularProduct(full), n).polys():
            assert eigencheck(full, p, n)


@pytest.mark.parametrize("d,n_max", [(1, 4), (2, 4), (3, 3)])
def test_monic_basis_spans_every_sampled_singular_eigenspace(d, n_max):
    # the operator alone fixes V_nu, so it is an independent reference for the
    # block construction of U_n; k = d+1 with n = 1 is the one collision
    # (degrees 0 and 1 share the eigenvalue 0)
    for _, gamma in _singular_weights(d):
        form = SingularProduct(gamma)
        for n in range(n_max + 1):
            if n == 1 and gamma.singular_split()[1] == d + 1:
                continue
            assert spans_equal(monomial_basis(gamma, n).polys(), u_space(form, n).polys()), \
                (gamma, n)


# the exponent that a slot outside the -1 entries takes in the pattern cases
SLOT_TAILS = (Fraction(0), H, Fraction(1, 3), Fraction(2))


@pytest.mark.parametrize("d,n_max", [(2, 4), (3, 3)])
def test_u_space_reaches_every_pattern_of_minus_one_entries(d, n_max):
    # "some, or all" of the exponents may be -1: for a set S of -1 slots that
    # is no trailing block, let pi list the other slots first and then S; then
    # gamma o pi has a trailing block, and U_n(gamma) is U_n(gamma o pi) pulled
    # back by pi.  The operator at gamma itself, and the monic basis, judge it.
    for size in range(1, d + 2):
        for ones in itertools.combinations(range(d + 1), size):
            if ones == tuple(range(d + 1 - size, d + 1)):
                continue
            gamma = ParamVector([-1 if s in ones else SLOT_TAILS[s] for s in range(d + 1)])
            pi = [s for s in range(d + 1) if s not in ones] + list(ones)
            form = SingularProduct(ParamVector([gamma[s] for s in pi]))
            for n in range(n_max + 1):
                polys = [p.pullback(pi[:d]) for p in u_space(form, n).polys()]
                assert len(polys) == poly_rank(polys) == comb(n + d - 1, n), (gamma, n)
                assert all(eigencheck(gamma, p, n) for p in polys), (gamma, n)
                assert spans_equal(polys, monomial_basis(gamma, n).polys()), (gamma, n)


def test_u_space_pulled_back_by_swapped_targets_leaves_the_eigenspace():
    # at (-1, 1/2, 1/3) the two free slots carry different exponents, so the
    # order of the pullback's targets matters
    gamma = ParamVector([-1, H, Fraction(1, 3)])
    form = SingularProduct(ParamVector([H, Fraction(1, 3), -1]))
    for n in (1, 2, 3):
        polys = u_space(form, n).polys()
        assert all(eigencheck(gamma, p.pullback((1, 2)), n) for p in polys)
        assert not all(eigencheck(gamma, p.pullback((2, 1)), n) for p in polys), n


@pytest.mark.parametrize("d,n_max", [(1, 4), (2, 4), (3, 3)])
def test_singular_eigenspaces_are_complete_and_orthogonal_term_by_term(d, n_max):
    # U_0, ..., U_N span every polynomial of degree <= N, at k = d+1 too, where
    # U_0 and U_1 share the eigenvalue 0.  Each integral term of the Sobolev
    # form alone pairs U_n to zero with every lower degree, so U_n is
    # orthogonal to lower degree for every choice of the form's lambdas.
    for _, gamma in _singular_weights(d):
        form = SingularProduct(gamma)
        eigenspaces = [u_space(form, n).polys() for n in range(n_max + 1)]
        assert poly_rank([p for polys in eigenspaces for p in polys]) == comb(n_max + d, d), gamma
        for term in form.terms:
            if term.weight is not None:
                alone = TermList(d, {}, [term])
                for n in range(1, n_max + 1):
                    assert alone.orthogonal_below(eigenspaces[n], n), (gamma, term.tag, n)


def _random_singular_weights():
    """Four seeded random tails, entries p/7 in (-1, 3], for each d <= 3 and
    k <= d, and the all-singular weight at each d: 27 weights."""
    rng = random.Random(26)
    for d in (1, 2, 3):
        for k in range(1, d + 1):
            for _ in range(4):
                yield _singular([Fraction(rng.randint(-6, 21), 7) for _ in range(d + 1 - k)], k)
        yield _singular([], d + 1)


# the highest degree checked at each d
N_TOP = {1: 5, 2: 4, 3: 3}


def test_thm34_and_thm36_hold_at_random_singular_weights():
    # the theorems hold for every tail > -1, not only at the sampled tails of
    # `_singular_weights`: each U_n is a complete eigenspace orthogonal to
    # lower degree, and the Sobolev form is positive definite
    for gamma in _random_singular_weights():
        form = SingularProduct(gamma)
        for n in range(N_TOP[gamma.d] + 1):
            assert verify_u_space(form, n)["ok"], (gamma, n)
        assert positive_definite(form.matrix(monomial_polys(gamma.d, 3))), gamma


def test_a_perturbed_element_fails_at_every_random_singular_weight(monkeypatch):
    # x_0^(n+1) added to the first element takes it out of U_n at every weight
    real = spaces.u_space

    def perturbed(form, n):
        basis = real(form, n)
        key, p = basis.elements[0]
        basis.elements[0] = (key, p + Polynomial.monomial(form.dim, [n + 1] + [0] * (form.dim - 1)))
        return basis

    monkeypatch.setattr(spaces, "u_space", perturbed)
    for gamma in _random_singular_weights():
        assert not verify_u_space(SingularProduct(gamma), 2)["ok"], gamma
