import hashlib
import itertools
import json
from fractions import Fraction
from math import comb

import pytest

from sobolex import spaces
from sobolex.bases import eigencheck
from sobolex.cli import main
from sobolex.errors import NonPositiveForm
from sobolex.linalg import poly_rank, spans_equal
from sobolex.moments import inner_product, vertex_eval
from sobolex.polynomials import Polynomial, monomials_up_to
from sobolex.products import SingularProduct
from sobolex.spaces import (expected_dimension, h_space, u_space,
                            verify_u_space)
from sobolex.weighted import ParamVector, face_params

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
    rep = gram(spec, labeled(tampered), labeled(lower, "m"))
    assert rep.to_json()["all_zero"] is False


def test_a_report_that_fails_every_check_keeps_the_recorded_order(monkeypatch):
    # U_3 of (-1, -1, -1) with a constant added to one element, x added to
    # another and the first one repeated fails all four checks; the report,
    # canonical as `sobolex eigen` prints it, is the one recorded before its
    # flags were derived from the failure list
    real = spaces.u_space

    def tampered(form, n):
        basis = real(form, n)
        (k1, p1), (k2, p2) = basis.elements[1:3]
        basis.elements[1] = (k1, p1 + 1)
        basis.elements[2] = (k2, p2 + Polynomial.variable(2, 0))
        basis.elements.append(basis.elements[0])
        return basis

    monkeypatch.setattr(spaces, "u_space", tampered)
    report = verify_u_space(_form((), 3), 3)
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
