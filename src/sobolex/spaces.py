"""Face subspaces and the singular-parameter eigenspaces they assemble into.

An eigenspace for the weight whose trailing k exponents equal -1 decomposes
into a multiplied core block, one block per 0/1 arrangement on the trailing
k slots (distinct patterns, not permutation orbits), and a top face block.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import TYPE_CHECKING, Sequence

from .bases import Basis, eigencheck, eigenvalue, permuted_element, rodrigues_element
from .linalg import poly_rank
from .moments import vertex_eval
from .polynomials import (Polynomial, constrained_indices, monomials_of_degree,
                          monomials_up_to)
from .weighted import ParamVector

if TYPE_CHECKING:
    from .products import SingularProduct


def h_space(gamma: ParamVector, zero_axes: Sequence[int], n: int) -> Basis:
    """Span of degree-n Rodrigues-type elements whose indices vanish on a face.

    `zero_axes` may include index d (the hyperplane); parameters on the zeroed
    slots never appear in the elements, so they are pinned to 0.  Empty when
    n < 0 or when d or more coordinates are zeroed.
    """
    d = gamma.d
    zset = frozenset(zero_axes)
    if not zset <= set(range(d + 1)):
        raise ValueError(f"bad zero set {sorted(zset)}")
    label = "h[" + ",".join(str(i) for i in sorted(zset)) + "]"
    pinned = gamma.with_values({i: 0 for i in zset})
    basis = Basis(pinned, label)
    if n < 0 or len(zset) >= d:
        return basis
    if d not in zset:
        for nu in constrained_indices(d, n, zset):
            basis.elements.append((nu, rodrigues_element(pinned, nu)))
        return basis
    true_zeros = sorted(zset - {d})
    free = [i for i in range(d) if i not in true_zeros]
    order = tuple([d] + true_zeros + free[:-1])
    z = len(zset)
    for part in monomials_of_degree(d - z, n):
        nu = (0,) * z + part
        basis.elements.append((nu, permuted_element(pinned, order, nu)))
    return basis


def u_space(form: SingularProduct, n: int) -> Basis:
    """The degree-n polynomial eigenspace of the weight of the Sobolev form
    `form`, gamma = (tail, -1, ..., -1), read off the form as split there.

    One block per 0/1 arrangement on the trailing k slots, with j ones for
    j = k .. 0: the h_space of the weight (tail, arrangement) with the 0
    slots zeroed, in degree n - j, times the y_s of the 1 slots.  The j = k
    block is the core block and the j = 0 block the top face block.  For
    k = d+1 and n = 1 the span is {x_j + c_j} with c_j = -lam_j / sum(lam),
    tied to the form's vertex coefficients lam.
    """
    d, tail, k = form.dim, form.tail, form.k
    basis = Basis(form.gamma, f"u[k={k}]")
    if n < 0:
        return basis
    if n == 0:
        basis.elements.append((("one",), Polynomial.constant(d, 1)))
        return basis
    if k == d + 1 and n == 1:
        total = sum(form.lam_vertex)  # > 0, since the form is positive
        for j in range(1, d + 1):
            shift = -form.lam_vertex[j] / total
            basis.elements.append((("linear", j),
                                   Polynomial.variable(d, j - 1) + shift))
        return basis

    slots = range(d + 1 - k, d + 1)
    for j in range(k, -1, -1):
        for ones in itertools.combinations(slots, j):
            pattern = tuple(int(s in ones) for s in slots)
            # the product of y_s over the slots with a 1, where y_d = 1-|x|
            ys = Polynomial.monomial(d + 1, (0,) * (d + 1 - k) + pattern)
            mult = ys.pullback(range(d + 1), d)
            zeroed = [s for s in slots if s not in ones]
            block = h_space(ParamVector(tail + pattern), zeroed, n - j)
            tag = ("core",) if j == k else ("top",) if j == 0 else ("block", pattern)
            basis.elements.extend((tag + (nu,), mult * p) for nu, p in block.elements)
    return basis


def expected_dimension(dim: int, n: int) -> int:
    return comb(n + dim - 1, n)


def verify_u_space(product: SingularProduct, n: int) -> dict:
    """Exact verification report for the degree-n eigenspace of the weight of
    `product`, the companion Sobolev form.

    Checks: every element solves the differential equation at the singular
    parameters with the stated eigenvalue; the stacked coefficient matrix has
    full rank binom(n+d-1, n); the Gram matrix against all lower-degree
    monomials under the companion product is identically zero; and, in the
    all-singular case with n >= 2, every element vanishes at every vertex.
    """
    dim, k, full = product.dim, product.k, product.gamma
    basis = u_space(product, n)
    failures: list[dict] = []

    def fail(check: str, key=None, witness: Polynomial | None = None) -> None:
        entry: dict = {"check": check}
        if key is not None:
            entry["element"] = str(key)
        if witness is not None:
            entry["counterexample"] = witness.to_json()
        failures.append(entry)

    eigen_ok = True
    for key, p in basis.elements:
        if not eigencheck(full, p, n):
            eigen_ok = False
            fail("eigen", key, p)
    expected = expected_dimension(dim, n)
    rank_value = poly_rank(basis.polys())
    rank_ok = rank_value == expected == len(basis.elements)
    if not rank_ok:
        fail(f"rank {rank_value} of {len(basis.elements)} elements, expected {expected}")
    lower = [Polynomial.monomial(dim, e) for e in monomials_up_to(dim, n - 1)]
    ortho_ok = product.orthogonal(basis.polys(), lower)
    if not ortho_ok:
        # the failing elements are named from the matrix, rebuilt only here
        for (key, p), row in zip(basis.elements, product.matrix(basis.polys(), lower)):
            if any(row):
                fail("gram-vs-lower-degree", key, p)
    vertices_ok = True
    if k == dim + 1 and n >= 2:
        for key, p in basis.elements:
            if any(vertex_eval(p, j) for j in range(dim + 1)):
                vertices_ok = False
                fail("vertex-vanishing", key, p)
    ok = eigen_ok and rank_ok and ortho_ok and vertices_ok
    return {
        "d": dim, "k": k, "n": n,
        "gamma": full.to_json(),
        "spec": product.describe(),
        "eigenvalue": str(eigenvalue(full, n)),
        "count": len(basis.elements),
        "rank": rank_value,
        "expected_dim": expected,
        "eigen_ok": eigen_ok,
        "rank_ok": rank_ok,
        "orthogonal_to_lower_degree": ortho_ok,
        "vertices_vanish": vertices_ok if (k == dim + 1 and n >= 2) else None,
        "failures": failures,
        "ok": ok,
    }
