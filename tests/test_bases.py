import itertools
import math
from fractions import Fraction
from functools import partial

import pytest

from sobolex.bases import (all_orders, biorthogonal_constant, eigencheck, eigenvalue,
                           jacobi_negative_one_beta,
                           jacobi_negative_one_one, jacobi_norm,
                           jacobi_p, jacobi_shifted,
                           monomial_basis, monomial_element, permuted_basis,
                           permuted_element, rodrigues_basis, rodrigues_element)
from sobolex.errors import NonIntegrableWeight, ZeroDenominator
from sobolex.moments import inner_product
from sobolex.polynomials import Polynomial, monomials_of_degree
from sobolex.scalars import ParamVector

from oracles import apply_operator, evaluate, jacobi_ode_residual, simplex_integral

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
    # alpha and beta alike: each is one exponent of the weight (1-x)^alpha x^beta
    for alpha, beta in ((-1, 0), (0, -1), (0, Fraction(-3, 2))):
        with pytest.raises(NonIntegrableWeight,
                           match=rf"^weight exponents \({beta},{alpha}\) are not all > -1$"):
            jacobi_norm(1, alpha, beta)


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


def test_jacobi_degenerate_both_refuses_lambdas_that_sum_to_zero():
    # mu = (lam2 - lam1) / (lam1 + lam2): the refusal is the package's own, not
    # the ZeroDivisionError of the division it stands in front of
    with pytest.raises(Exception) as refused:
        jacobi_negative_one_one(1, 1, -1)
    assert refused.type is ZeroDenominator


def _suite_jacobi_families():
    """(alpha, beta, [P_0..P_5]) for every family that `suite_jacobi` builds."""
    for a, b in ((0, 0), (H, H), (1, 0), (H, Fraction(1, 3))):
        yield a, b, [jacobi_p(n, a, b) for n in range(6)]
    for b in (0, H, 2):
        yield -1, b, [jacobi_negative_one_beta(n, b) for n in range(6)]
    for l1, l2 in ((1, 1), (2, 1), (H, 3)):
        yield -1, -1, [jacobi_negative_one_one(n, l1, l2) for n in range(6)]


def test_jacobi_ode_is_the_d1_operator_after_x_is_2u_minus_1():
    # with gamma = (beta, alpha), (1-x^2) = 4u(1-u) and d/dx = d/du / 2 turn
    # the Jacobi ODE of (alpha, beta) into L_gamma g - lambda_n g, g(u) = P(2u-1)
    x = 2 * T - 1
    rejected = 0
    for a, b, family in _suite_jacobi_families():
        gamma = ParamVector([b, a])
        for n, p in enumerate(family):
            g = p.substitute(0, x)
            assert jacobi_ode_residual(p, n, a, b).substitute(0, x) \
                == apply_operator(gamma, g) - eigenvalue(gamma, n) * g
            for m in range(max(n - 1, 0), n + 2):
                assert eigencheck(gamma, g, m) is jacobi_ode_residual(p, m, a, b).is_zero
                rejected += not eigencheck(gamma, g, m)
    # every m != n but (n, m) = (0, 1) and (1, 0) at (-1, -1), where lambda_0 = lambda_1
    assert rejected == 10 * 11 - 3 * 2


def test_rodrigues_examples():
    g = ParamVector([0, 0, 0])
    assert rodrigues_element(g, (1, 0)) == 1 - 2 * X - Y
    assert rodrigues_element(ParamVector([-1, 0, 0]), (1, 0)) == -X
    # a weight with a denominator: (gamma_0 + 1)(1 - x - y) - (gamma_2 + 1) x
    assert rodrigues_element(ParamVector([H, 0, 0]), (1, 0)) == Fraction(3, 2) * (1 - X - Y) - X
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
            permuted = ParamVector([gamma[o] for o in (*order, c)])
            for n in range(4):
                for nu in monomials_of_degree(d, n):
                    assert (rodrigues_element(permuted, nu).pullback(order)
                            == permuted_element(gamma, order, nu))


@pytest.mark.parametrize("d", [2, 3])
def test_every_family_refuses_a_bad_multi_index(d):
    # a negative entry would sum an empty box to 0, an index of the wrong
    # length would build some other polynomial (or, for the constant, zip it
    # short), True would pass as 1 and 1.0 would reach math.comb, so each
    # must be refused
    gamma = ParamVector([H] * (d + 1))
    families = [partial(rodrigues_element, gamma),
                partial(permuted_element, gamma, tuple(range(d, 0, -1))),
                partial(monomial_element, gamma), partial(biorthogonal_constant, gamma)]
    bad = [(-1,) + (1,) * (d - 1), (1,) * (d - 2) + (-2,), (1,) * (d - 1), (1,) * (d + 1),
           (True,) + (0,) * (d - 1), (1.0,) + (0,) * (d - 1)]
    for build, nu in itertools.product(families, bad):
        with pytest.raises(ValueError, match="bad multi-index"):
            build(nu)


def test_monomial_examples():
    g = ParamVector([0, 0, 0])
    assert monomial_element(g, (1, 0)) == X - Fraction(1, 3)
    assert monomial_element(ParamVector([0, 0, -1]), (1, 0)) == X - H
    for nu in ((2, 1), (0, 3)):
        v = monomial_element(ParamVector([H, 1, Fraction(1, 3)]), nu)
        assert v.coefficient(nu) == 1
    # (g_0+1)_1 = 0 takes no term away: the element is x_0 itself
    assert monomial_element(ParamVector([-1, 0, 0]), (1, 0)) == X
    # s = -1: degrees 0 and 1 share the eigenvalue 0, so no monic x_0 + c
    # exists, whether the closed form's numerator vanishes there or not
    for entries in ([0, 0, -3], [-1, -1, -1]):
        with pytest.raises(ZeroDenominator, match="degrees 0 and 1 share the eigenvalue 0"):
            monomial_element(ParamVector(entries), (1, 0))


def test_operator_examples():
    g = ParamVector([0, 0, 0])
    assert apply_operator(g, Polynomial.constant(2, 1)).is_zero
    p = 1 - 2 * X - Y
    assert apply_operator(g, p) == -3 * p
    assert eigencheck(g, p, 1)
    assert not eigencheck(g, X, 2)
    sing = ParamVector([-1, -1, -1])
    assert apply_operator(sing, X + Fraction(7, 3)).is_zero


def test_all_orders_lists_every_order_lexicographically():
    assert all_orders(1) == [(0,), (1,)]
    assert all_orders(2) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    for d in (3, 4):
        orders = all_orders(d)
        assert orders == sorted(set(orders)) and len(orders) == math.factorial(d + 1)


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


def test_biorthogonality_constant_refuses_a_weight_that_is_not_integrable():
    # the first would return -1, the second would divide by (|g|+d+1)_2 = 0
    for entries in ([-H, -Fraction(3, 2), -Fraction(3, 2)], [-Fraction(3, 2), -Fraction(3, 2), -1]):
        with pytest.raises(NonIntegrableWeight, match="are not all > -1"):
            biorthogonal_constant(ParamVector(entries), (1, 0))


def test_biorthogonality_diagonal():
    for g in (ParamVector([0, 0, 0]), ParamVector([H, 1, Fraction(1, 3)])):
        for n in range(3):
            rod = rodrigues_basis(g, n)
            mon = monomial_basis(g, n)
            for (nu, p), (mu, v) in itertools.product(rod.elements, mon.elements):
                want = biorthogonal_constant(g, nu) if nu == mu else Fraction(0)
                assert inner_product(p, v, g) == want
