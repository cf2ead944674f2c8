import itertools
from fractions import Fraction

import pytest

from sobolex.bases import (all_orders, biorthogonal_constant, eigencheck,
                           jacobi_negative_one_beta,
                           jacobi_negative_one_one, jacobi_norm,
                           jacobi_ode_residual, jacobi_p, jacobi_shifted,
                           monomial_basis, monomial_element, permuted_basis,
                           permuted_element, rodrigues_basis, rodrigues_element)
from sobolex.errors import NonIntegrableWeight, ZeroDenominator
from sobolex.moments import inner_product
from sobolex.polynomials import Polynomial, monomials_of_degree
from sobolex.weighted import ParamVector

from oracles import apply_operator, evaluate, simplex_integral

H = Fraction(1, 2)
X = Polynomial.variable(2, 0)
Y = Polynomial.variable(2, 1)
T = Polynomial.variable(1, 0)


def test_jacobi_p_low_degrees():
    assert jacobi_p(0, H, Fraction(2)) == Polynomial.constant(1, 1)
    for a, b in ((Fraction(0), Fraction(0)), (H, Fraction(1, 3))):
        want = ((a + b + 2) * T + (a - b)) * H
        assert jacobi_p(1, a, b) == want
    # Legendre case
    assert jacobi_p(2, 0, 0) == Fraction(3, 2) * T * T - H


def test_jacobi_shifted_low_degrees():
    assert jacobi_shifted(0, Fraction(3), Fraction(7)) == Polynomial.constant(1, 1)
    for a, b in ((Fraction(0), Fraction(0)), (H, Fraction(1))):
        assert jacobi_shifted(1, a, b) == (1 + b) - (a + b + 2) * T
    assert jacobi_shifted(1, 0, 0) == 1 - 2 * T


def test_jacobi_norm():
    assert jacobi_norm(0, H, Fraction(7)) == 1
    assert jacobi_norm(1, 0, 0) == Fraction(1, 3)
    with pytest.raises(NonIntegrableWeight):
        jacobi_norm(1, -1, 0)


def test_jacobi_norm_matches_integral():
    # cross-module check against the normalized moment machinery
    sub = Polynomial(1, {(0,): Fraction(-1), (1,): Fraction(2)})
    from sobolex.moments import integral
    for a, b in itertools.product((Fraction(0), H, Fraction(1)), repeat=2):
        for n in range(4):
            p = jacobi_p(n, a, b)
            val = integral((p * p).substitute(0, sub), ParamVector([b, a]))
            assert val == jacobi_norm(n, a, b)


def test_jacobi_degenerate_beta():
    assert jacobi_negative_one_beta(0, Fraction(2)) == Polynomial.constant(1, 1)
    for b in (Fraction(0), H):
        for n in range(6):
            f = jacobi_negative_one_beta(n, b)
            assert jacobi_ode_residual(f, n, Fraction(-1), b).is_zero
            if n >= 1:
                assert evaluate(f, [1]) == 0


def test_jacobi_degenerate_both():
    assert jacobi_negative_one_one(1, 1, 1) == T
    assert jacobi_negative_one_one(1, 1, 3) == T + H
    assert jacobi_negative_one_one(2) == (T * T - 1) * Fraction(1, 4)
    for n in range(6):
        f = jacobi_negative_one_one(n, 2, 1)
        assert jacobi_ode_residual(f, n, Fraction(-1), Fraction(-1)).is_zero


def test_rodrigues_examples():
    g = ParamVector([0, 0, 0])
    assert rodrigues_element(g, (1, 0)) == 1 - 2 * X - Y
    assert rodrigues_element(ParamVector([-1, 0, 0]), (1, 0)) == -X
    basis = rodrigues_basis(ParamVector([H, 1, 0]), 0)
    assert basis.polys() == [Polynomial.constant(2, 1)]


def test_permuted_identity_order_is_plain():
    g = ParamVector([H, Fraction(1, 3), 1])
    for nu in ((0, 0), (1, 0), (2, 1)):
        assert permuted_element(g, (0, 1), nu) == rodrigues_element(g, nu)


def test_permuted_closed_forms():
    g = ParamVector([0, 0, 0])
    # the reflected family, order (1-x-y, y)
    assert permuted_element(g, (2, 1), (0, 1)) == X - Y
    # both displayed routes to the swapped family, order (y, x), agree
    for n in range(4):
        for k in range(n + 1):
            lhs = rodrigues_element(ParamVector([0, 0, 0]), (k, n - k)).pullback((1, 0))
            assert lhs == permuted_element(g, (1, 0), (k, n - k))
    assert permuted_basis(g, (2, 1), 0).polys() == [Polynomial.constant(2, 1)]
    with pytest.raises(ValueError):
        permuted_element(g, (0, 0), (1, 0))


@pytest.mark.parametrize("d", [2, 3])
def test_permuted_element_is_the_pulled_back_rodrigues_element(d):
    # R(g o s, nu) pulled back by the order is the permuted element, where
    # g o s lists g_{o_0}, ..., g_{o_{d-1}} and then g_c, c the omitted index
    weights = [ParamVector([0] * (d + 1)),
               ParamVector([H, Fraction(1, 3), 2, Fraction(1, 4)][:d + 1]),
               ParamVector([-1, Fraction(3, 5), 0, Fraction(-2, 7)][:d + 1])]
    for gamma in weights:
        for order in all_orders(d):
            (c,) = set(range(d + 1)) - set(order)
            permuted = ParamVector([gamma.entries[o] for o in (*order, c)])
            for n in range(4):
                for nu in monomials_of_degree(d, n):
                    assert (rodrigues_element(permuted, nu).pullback(order)
                            == permuted_element(gamma, order, nu))


def test_monomial_examples():
    g = ParamVector([0, 0, 0])
    assert monomial_element(g, (1, 0)) == X - Fraction(1, 3)
    assert monomial_element(ParamVector([0, 0, -1]), (1, 0)) == X - H
    for nu in ((2, 1), (0, 3)):
        v = monomial_element(ParamVector([H, 1, Fraction(1, 3)]), nu)
        assert v.coefficient(nu) == 1
    with pytest.raises(ZeroDenominator):
        monomial_element(ParamVector([-1, 0, 0]), (1, 0))


def test_operator_examples():
    g = ParamVector([0, 0, 0])
    assert apply_operator(g, Polynomial.constant(2, 1)).is_zero
    p = 1 - 2 * X - Y
    assert apply_operator(g, p) == -3 * p
    assert eigencheck(g, p, 1)
    assert not eigencheck(g, X, 2)
    sing = ParamVector([-1, -1, -1])
    assert apply_operator(sing, X + Fraction(7, 3)).is_zero


def test_eigenfunctions_all_families_small():
    g = ParamVector([H, 0, 1])
    for n in range(4):
        for _, p in rodrigues_basis(g, n).elements:
            assert eigencheck(g, p, n)
        for _, p in monomial_basis(g, n).elements:
            assert eigencheck(g, p, n)
        for order in all_orders(2):
            for _, p in permuted_basis(g, order, n).elements:
                assert eigencheck(g, p, n)


def test_zero_index_slots_ignore_their_parameter():
    # when nu_l = 0 the construction never differentiates in x_l, so the
    # exponent there cancels and gamma_l may take any value
    base = ParamVector([H, 1, Fraction(1, 3)])
    for nu, axis in (((0, 2), 0), ((3, 0), 1)):
        for value in (Fraction(0), Fraction(-1), Fraction(7, 2)):
            tweaked = base.with_values({axis: value})
            assert rodrigues_element(tweaked, nu) == rodrigues_element(base, nu)


def test_singular_parameters_still_eigenfunctions():
    # analytic continuation: -1 entries keep the differential equation exact
    for entries in ([0, 0, -1], [-1, -1, -1], [H, -1, 0]):
        g = ParamVector(entries)
        for n in range(4):
            for nu, p in rodrigues_basis(g, n).elements:
                assert eigencheck(g, p, n)


def test_biorthogonality_constant_against_brute_force():
    # integer-exponent brute force: unnormalized integrals via the slow oracle
    g = ParamVector([1, 0, 2])
    mass = simplex_integral((1, 0, 2))
    for n in range(3):
        for nu, p in rodrigues_basis(g, n).elements:
            v = monomial_element(g, nu)
            prod = p * v
            total = sum(c * simplex_integral((e[0] + 1, e[1], 2))
                        for e, c in prod.items())
            assert total / mass == biorthogonal_constant(g, nu)
            assert inner_product(p, v, g) == biorthogonal_constant(g, nu)


def test_biorthogonality_diagonal():
    for g in (ParamVector([0, 0, 0]), ParamVector([H, 1, Fraction(1, 3)])):
        for n in range(3):
            rod = rodrigues_basis(g, n)
            mon = monomial_basis(g, n)
            for (nu, p), (mu, v) in itertools.product(rod.elements, mon.elements):
                want = biorthogonal_constant(g, nu) if nu == mu else Fraction(0)
                assert inner_product(p, v, g) == want
