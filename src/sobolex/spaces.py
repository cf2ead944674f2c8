"""Face subspaces and the singular-parameter eigenspaces they assemble into.

An eigenspace for the weight whose trailing k exponents equal -1 decomposes
into a multiplied core block, one block per 0/1 arrangement on the trailing
k slots (distinct patterns, not permutation orbits), and a top face block.
"""

from __future__ import annotations

import itertools
from math import comb, inf
from typing import TYPE_CHECKING, Iterable, Sequence

from .bases import Basis, eigencheck, eigenvalue, permuted_element
from .linalg import poly_rank
from .moments import vertex_eval
from .polynomials import Polynomial, barycentric_product, monomials_of_degree
from .scalars import ParamVector, is_index, zero_set

if TYPE_CHECKING:
    from .products import SingularProduct


def h_space(gamma: ParamVector, zero_axes: Sequence[int], n: int) -> Basis:
    """Span of degree-n Rodrigues-type elements whose indices vanish on a face.

    `zero_axes` may include index d (the hyperplane); zeroed slots' parameters
    never appear in the elements, so they are pinned to 0.  Empty when n < 0 or
    d or more coordinates are zeroed; a non-int degree is refused on any face.
    """
    d = gamma.d
    zset = zero_set(zero_axes, d)
    label = "h[" + ",".join(str(i) for i in sorted(zset)) + "]"
    pinned = gamma.with_values({i: 0 for i in zset})
    # a coordinate face: its own slots in the identity order (rodrigues_element);
    # through the hyperplane: the first slots, holding 1-|x| and the true zeros
    order, slots = tuple(range(d)), zset
    if d in zset:
        free = [i for i in range(d) if i not in zset]
        order, slots = (d, *sorted(zset - {d}), *free[:-1]), range(len(zset))
    # a face of dimension < 1 has no block, at any degree
    return Basis(pinned, label, [(nu, permuted_element(pinned, order, nu))
                                 for nu in monomials_of_degree(d, n)
                                 if len(zset) < d and not any(nu[i] for i in slots)])


def u_space(form: SingularProduct, n: int) -> Basis:
    """The degree-n polynomial eigenspace of the weight of the Sobolev form
    `form`, gamma = (tail, -1, ..., -1), read off the form as split there.

    One block per 0/1 arrangement on the trailing k slots, with j ones for
    j = k .. 0: the h_space of the weight (tail, arrangement) with the 0
    slots zeroed, in degree n - j, times the y_s of the 1 slots.  The j = k
    block is the core block and the j = 0 block the top face block.  For
    k = d+1 and n = 1 the span is {x_j + c_j} with c_j = -lam_j / sum(lam),
    tied to the form's vertex coefficients lam.  At n < 0 every block is empty.
    """
    if not is_index(n, -inf):
        raise ValueError(f"n must be an int, not {n!r}")
    d, tail, k = form.dim, form.tail, form.k
    elements: list[tuple[tuple, Polynomial]] = []
    if n == 0:
        elements.append((("one",), Polynomial.constant(d, 1)))
    elif k == d + 1 and n == 1:
        total = sum(form.lam_vertex)  # > 0, since the form is positive
        for j in range(1, d + 1):
            shift = -form.lam_vertex[j] / total
            elements.append((("linear", j), Polynomial.variable(d, j - 1) + shift))
    else:
        slots = range(len(tail), d + 1)
        for j in range(k, -1, -1):
            for ones in itertools.combinations(slots, j):
                pattern = tuple(int(s in ones) for s in slots)
                mult = barycentric_product(d, ones)
                zeroed = [s for s in slots if s not in ones]
                block = h_space(ParamVector(tail + pattern), zeroed, n - j)
                tag = ("core",) if j == k else ("top",) if j == 0 else ("block", pattern)
                elements.extend((tag + (nu,), mult * p) for nu, p in block.elements)
    return Basis(form.gamma, f"u[k={k}]", elements)


def expected_dimension(dim: int, n: int) -> int:
    if not (is_index(dim, 1) and is_index(n, 0)):
        raise ValueError(f"expected_dimension needs dim >= 1 and n >= 0, not {dim!r}, {n!r}")
    return comb(n + dim - 1, n)


def verify_u_space(product: SingularProduct, n: int) -> dict:
    """Exact verification report for the degree-n eigenspace of the weight of
    `product`, the companion Sobolev form.

    Checks, in this order: every element solves the differential equation at
    the singular parameters with the stated eigenvalue; the stacked
    coefficient matrix has full rank binom(n+d-1, n); the Gram matrix against
    all lower-degree monomials under the companion product is identically
    zero; and, in the all-singular case with n >= 2, every element vanishes
    at every vertex.  `failures` is the report's one record, in that order:
    each failing element, as its own counterexample, and a rank shortfall.
    A check's flag says that it recorded nothing, and `ok` that none did.
    """
    if not is_index(n, 0):
        raise ValueError(f"n must be an int >= 0, not {n!r}")
    dim, k, full = product.dim, product.k, product.gamma
    basis = u_space(product, n)
    polys = basis.polys()
    failures: list[dict] = []

    def record(check: str, failing: Iterable[bool]) -> bool:
        """Record each element whose bool in `failing` is True; whether none was."""
        found = [{"check": check, "element": str(key), "counterexample": p.to_json()}
                 for (key, p), bad in zip(basis.elements, failing) if bad]
        failures.extend(found)
        return not found

    eigen_ok = record("eigen", (not eigencheck(full, p, n) for p in polys))
    expected = expected_dimension(dim, n)
    rank = poly_rank(polys)
    rank_ok = rank == expected == len(polys)
    if not rank_ok:
        failures.append({"check": f"rank {rank} of {len(polys)} elements, expected {expected}"})
    ortho_ok = record("gram-vs-lower-degree", map(any, product.matrix(polys, product.below(n))))
    vertices_ok = None
    if k == dim + 1 and n >= 2:
        vertices_ok = record("vertex-vanishing", (any(vertex_eval(p, j) for j in range(dim + 1))
                                                  for p in polys))
    return {
        "d": dim, "k": k, "n": n,
        "gamma": full.to_json(),
        "spec": product.describe(),
        "eigenvalue": str(eigenvalue(full, n)),
        "count": len(basis.elements),
        "rank": rank,
        "expected_dim": expected,
        "eigen_ok": eigen_ok,
        "rank_ok": rank_ok,
        "orthogonal_to_lower_degree": ortho_ok,
        "vertices_vanish": vertices_ok,
        "failures": failures,
        "ok": not failures,
    }
