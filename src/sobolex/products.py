"""Every bilinear form in the package, as a list of terms, plus the Gram report.

A form is a sum of terms lam * <A f, A g x^s>_W.  The image A differentiates (a
multi-index or a directional combination) and may restrict to a face of T^d; W
is the term's base weight and x^s an optional monomial multiplier on the
right-hand factor.  A term without a weight is a scalar product lam * A(f) A(g)
of point values.  Every form is a `TermList`: its list `terms` and a `spec`
dict, from which its one `describe()` is built.  The three products are
subclasses whose constructors check their parameters and build both; every
term of the derivative form has coefficient 1, and the Sobolev form has one
derivative term per nonempty subset of its differentiated axes, the full
subset its main term.  The paper's d = 2 forms in `suites` are
plain term lists.  One evaluator, `matrix`, computes every value and Gram
matrix from the terms; every check in `suites` and `spaces` reads it, the
all-zero ones through `orthogonal`; `below(n)` is the one place that turns a
degree into its columns, the polynomials of lower degree.
It maps each row and each column polynomial through each term once, keeps the
images as integer coefficients over a common denominator, and pairs them by
moment sums (`moments.pairings`), so no polynomial is built per pair.  Each
term's block, ints over one denominator, is added with one int rescale to the
form's running sum; each entry becomes one Fraction at the end; `gram` labels
it into a `GramReport`, the record that is printed.

Each integral term is Dirichlet-normalized against its own displayed base
weight (the monomial factors such as x_i inside a summand belong to the
integrand, not the weight).  The lambda coefficients are free positive
constants, so this rescaling never affects an orthogonality statement while
keeping every value rational; the describe() payload records the convention.
The one-variable forms are those at d = 1, on T^1 = [0,1].
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import NonPositiveForm
from .linalg import positive_definite
from .moments import pairings, vertex_eval
from .polynomials import Exponents, Polynomial, monomial_polys
from .scalars import ParamVector, Rational, as_fraction, clear_denominators, is_index

ONE = Fraction(1)
ZERO = Fraction(0)


def mass_ratio(params: ParamVector) -> str:
    """The reciprocal mass of a base weight as a symbolic Gamma-ratio string.

    Normalized values equal this constant times the plain integral; recording
    it keeps the rescaling of each term auditable even when it is irrational.
    """
    den = "*".join(f"Gamma({g + 1})" for g in params)
    return f"Gamma({sum(params) + params.d + 1})/({den})"


class Term(NamedTuple):
    """lam * <image(f), image(g) x^right> against the base weight `weight`,
    or, when weight is None, lam * image(f) * image(g) for a point value.

    `tag` is the term's key in the normalization that describe() records:
    the mass ratio of its weight, or "vertex" for a point value.  Terms that
    share a weight may share a tag; a term without a tag is not listed.
    """

    lam: Fraction
    image: Callable[[Polynomial], Polynomial | Fraction]
    weight: ParamVector | None
    right: Exponents | None = None
    tag: str | None = None


def _derivative(axes: Iterable[int], zeroed: Iterable[int] = ()) -> Callable:
    """f -> the partial derivative of f along `axes`, restricted to the face
    where the coordinates `zeroed` vanish (index d: 1-|x| = 0)."""
    axes, zeroed = tuple(axes), frozenset(zeroed)
    if zeroed:
        return lambda f: reduce(Polynomial.partial, axes, f).restrict(zeroed)
    return lambda f: reduce(Polynomial.partial, axes, f)


def _vertex(j: int) -> Callable:
    """f -> f at vertex e_j of T^d, e_0 the origin."""
    return lambda f: vertex_eval(f, j)


class TermList:
    """A bilinear form given by its list of `terms`; `spec` names it in describe()."""

    def __init__(self, dim: int, spec: dict, terms: list[Term]):
        self.dim, self.spec, self.terms = dim, spec, terms

    def describe(self) -> dict:
        """The spec, and the rescaling of every tagged term, zero-lambda ones included."""
        return {**self.spec, "normalization": {
            t.tag: "vertex" if t.weight is None else mass_ratio(t.weight)
            for t in self.terms if t.tag}}

    def matrix(self, rows: Sequence[Polynomial],
               cols: Sequence[Polynomial] | None = None) -> list[list[Fraction]]:
        """Entry (i, j) is the form at (rows[i], cols[j]); cols None means
        cols = rows, where only j >= i is paired and the rest mirrored."""
        same = cols is None
        for p in itertools.chain(rows, () if same else cols):
            if p.dim != self.dim:
                raise ValueError(f"dimension mismatch: {p.dim} vs {self.dim}")
        # entry (i, j) is summed as the int fraction nums[i][j] / den
        nums, den = [[0] * len(rows if same else cols) for _ in rows], 1
        for lam, image, weight, right, _ in (t for t in self.terms if t.lam):
            a = [image(f) for f in rows]
            b = a if same else [image(g) for g in cols]
            if weight is None:
                (xs, xden), (ys, yden) = clear_denominators(a), clear_denominators(b)
                block, bden = [[x * y for y in ys] for x in xs], xden * yden
            else:
                block, bden = pairings(weight, a, b, right, upper=same)
            # the running sum and the block, each rescaled by one int to their lcm
            common = lcm(den, bden * lam.denominator)
            s, t = common // den, lam.numerator * (common // (bden * lam.denominator))
            nums = [[s * n + t * v for n, v in zip(line, values)]
                    for line, values in zip(nums, block)]
            den = common
        out: list[list[Fraction]] = []
        for i, line in enumerate(nums):
            start = i if same else 0
            out.append([out[j][i] for j in range(start)]
                       + [Fraction(n, den) if n else ZERO for n in line[start:]])
        return out

    def value(self, f: Polynomial, g: Polynomial) -> Fraction:
        return self.matrix([f], [g])[0][0]

    def orthogonal(self, rows: Sequence[Polynomial], cols: Sequence[Polynomial]) -> bool:
        """Whether every polynomial in `rows` pairs to zero with every one in `cols`."""
        return not any(any(line) for line in self.matrix(rows, cols))

    def below(self, n: int) -> tuple[Polynomial, ...]:
        """The polynomials of degree below n: the monomials of degree <= n - 1."""
        return monomial_polys(self.dim, n - 1)

    def orthogonal_below(self, rows: Sequence[Polynomial], n: int) -> bool:
        """Whether every polynomial in `rows` is orthogonal to `below(n)`."""
        return self.orthogonal(rows, self.below(n))


class ClassicalProduct(TermList):
    """The plain normalized pairing against an integrable simplex weight."""

    def __init__(self, gamma: ParamVector):
        self.gamma = gamma
        super().__init__(gamma.d, {"kind": "classical", "gamma": gamma.to_json()},
                         [Term(ONE, _derivative(()), gamma, tag="main")])


class DerivativeProduct(TermList):
    """Classical pairing plus weighted pairings of order-j mixed derivatives.

    For every subset S of coordinates with 1 <= |S| <= order, adds
    <d^S f, d^S g> against the weight shifted by +1 on S and +|S| on the
    complement factor.  Every coefficient is 1, and no other is needed: d^S
    maps the eigenspace V_n(gamma) into V_{n-|S|} of that shifted weight, so
    each term alone pairs V_n with every lower degree to zero (as
    `tests/test_products.py` checks), and so does every nonnegative combination.
    """

    def __init__(self, gamma: ParamVector, order: int):
        d = gamma.d
        if not is_index(order, 1, d):
            raise ValueError("order must lie in 1..d")
        self.gamma = gamma
        self.order = order
        terms = [Term(ONE, _derivative(()), gamma, tag="main")]
        for j in range(1, order + 1):
            for subset in itertools.combinations(range(d), j):
                deltas = [1 if i in subset else 0 for i in range(d)] + [j]
                terms.append(Term(ONE, _derivative(subset), gamma.shifted(deltas),
                                  tag="d" + "".join(str(i) for i in subset)))
        super().__init__(d, {"kind": "derivative", "gamma": gamma.to_json(), "order": order,
                             "lambda": {}}, terms)


class SingularProduct(TermList):
    """The Sobolev pairing attached to a weight whose trailing k exponents are -1.

    Its derivative terms come from one family, the nonempty subsets s of the
    k-1 differentiated axes (the trailing true coordinates): the term of s
    differentiates s where the other differentiated axes vanish, against the
    weight tail + (0,)*|s| + (|s|-1,).  The full subset is the main term.

    Parameters: the weight gamma, split by `ParamVector.singular_split` (which
    refuses any other weight) into its leading exponents `tail` (all > -1)
    and k >= 1, and the coefficient families
      lam       -- the boundary/vertex coefficient of the final term (k <= d),
      lam_axis  -- per-coordinate coefficients of the gradient face term
                   (1 < k <= d; at k = 1 it is the main term, with lambda 1),
      lam_face  -- coefficients of the face terms, the proper subsets (k >= 3),
      lam_vertex -- vertex coefficients lam_{j,0}, j = 0..d (k = d+1 only).
    None means all ones, the default; an empty list is no default.  The
    constructor is the one judge of the coefficients, by two rules.  A family
    that the form has no term for must be None (a ValueError, as are a wrong
    length and a lam_face key that is no face).  A form that is not an inner
    product is a `NonPositiveForm`: it needs every lam_face entry > 0 and, at
    k = d+1, every vertex coefficient >= 0 with one > 0, below it lam and
    every lam_axis entry > 0.  The form is the one holder of the split and of
    the checked coefficients: `spaces.u_space(form, n)` reads them off it.
    """

    def __init__(self, gamma: ParamVector, lam: Rational | None = None,
                 lam_axis: Sequence[Rational] | None = None,
                 lam_face: Mapping[frozenset[int], Rational] | None = None,
                 lam_vertex: Sequence[Rational] | None = None):
        tail, k = self.tail, self.k = gamma.singular_split()
        self.gamma = gamma
        dim, free = gamma.d, len(tail)  # free: the size of the part before the -1 block
        for name, given, taken in (("lam", lam, k <= dim), ("lam_axis", lam_axis, 1 < k <= dim),
                                   ("vertex coefficients (lam_vertex)", lam_vertex, k > dim)):
            if given is not None and not taken:
                raise ValueError(f"the Sobolev form at k = {k}, d = {dim} takes no {name}")
        self.lam = ONE if lam is None else as_fraction(lam)
        self.lam_axis = tuple(as_fraction(v) for v in
                              ((1,) * free if lam_axis is None else lam_axis))
        if len(self.lam_axis) != free:
            raise ValueError("lam_axis has wrong length")
        mk = list(range(free, dim))  # the differentiated axes, zero-based
        subsets = [s for i in range(1, k) for s in itertools.combinations(mk, i)]  # mk last
        self.lam_face = {frozenset(s): as_fraction(v) for s, v in (lam_face or {}).items()}
        # a key axis that is not an int >= 0 (a bool too: True would pass as axis 1)
        bad = [i for s in self.lam_face for i in s if not is_index(i, 0)]
        if bad:
            raise ValueError(f"a coefficient key axis must be an int >= 0, not {bad[0]!r}")
        if not self.lam_face.keys() <= set(map(frozenset, subsets[:-1])):
            raise ValueError("lam_face keys must be proper nonempty subsets of the "
                             "differentiated axes, which exist only for k >= 3")
        self.lam_vertex = tuple(as_fraction(v) for v in
                                ((1,) * (dim + 1) if lam_vertex is None else lam_vertex))
        if len(self.lam_vertex) != dim + 1:
            raise ValueError("need d+1 vertex coefficients")
        rules = [("every lam_face entry must be > 0", all(v > 0 for v in self.lam_face.values()))]
        if k == dim + 1:
            rules.append(("vertex coefficients must be >= 0, at least one > 0",
                          min(self.lam_vertex) >= 0 < max(self.lam_vertex)))
        else:
            rules.append(("lam and every lam_axis entry must be > 0",
                          min(self.lam, *self.lam_axis) > 0))
        broken = [rule for rule, held in rules if not held]
        if broken:
            raise NonPositiveForm("the Sobolev form is not positive: " + "; ".join(broken))

        terms = [Term(self.lam_face.get(frozenset(s), ONE), _derivative(s, set(mk) - set(s)),
                      ParamVector(tail + (0,) * len(s) + (len(s) - 1,)),
                      tag="main" if len(s) == k - 1 else "face" + "".join(map(str, s)))
                 for s in subsets[-1:] + subsets[:-1]]  # the main term first
        spec = {"kind": "singular", "d": dim, "k": k, "tail": [str(t) for t in tail]}
        if k == dim + 1:
            terms += [Term(v, _vertex(j), None) for j, v in enumerate(self.lam_vertex)]
            spec["lambda_vertex"] = [str(v) for v in self.lam_vertex]
        else:
            # at k = 1 the gradient term is the main one, and the final term the boundary
            gradient_tag, final_tag = ("gradient-face", "final") if k > 1 else ("main", "boundary")
            # gradient term on the face where the trailing k-1 axes vanish
            gradient = ParamVector(tail + (0,))
            terms += [Term(self.lam_axis[i], _derivative((i,), mk), gradient,
                           tuple(int(j == i) for j in range(free)), gradient_tag) for i in range(free)]
            final = (_vertex(1), None) if k == dim else (_derivative((), mk + [dim]),
                                                         ParamVector(tail))
            terms.append(Term(self.lam, *final, tag=final_tag))
            spec["lambda"] = str(self.lam)
            spec["lambda_axis"] = [str(v) for v in self.lam_axis]
        if self.lam_face:
            spec["lambda_face"] = {"+".join(map(str, sorted(s))): str(v)
                                   for s, v in self.lam_face.items()}
        super().__init__(dim, spec, terms)


# -- Gram machinery -----------------------------------------------------------

class GramReport(NamedTuple):
    """The Gram matrix of `gram`, with its labels and form spec; `separate_columns`
    marks one against columns of its own (the lower-degree monomials).  Every
    flag is derived in `to_json()`; `diagonal` and `positive_definite` are null
    unless the Gram is nonempty and against its own rows (symmetric, since
    `matrix(rows)` mirrors its upper triangle)."""

    spec: dict
    row_labels: list[str]
    col_labels: list[str]
    matrix: list[list[Fraction]]
    separate_columns: bool = False

    def to_json(self) -> dict:
        all_zero = not any(any(row) for row in self.matrix)
        own_rows = bool(self.matrix) and not self.separate_columns
        out = {
            "spec": self.spec,
            "rows": self.row_labels,
            "cols": self.col_labels,
            "matrix": [[str(v) for v in row] for row in self.matrix],
            "all_zero": all_zero,
            "diagonal": all(not v for i, row in enumerate(self.matrix) for j, v in enumerate(row)
                            if i != j) if own_rows else None,
            "positive_definite": positive_definite(self.matrix) if own_rows else None,
        }
        if self.separate_columns:
            out["orthogonal_to_lower_degree"] = all_zero
        return out


def gram(product: TermList, rows: Sequence[tuple[str, Polynomial]],
         cols: Sequence[tuple[str, Polynomial]] | None = None) -> GramReport:
    """Exact Gram matrix of labeled polynomials under any product object."""
    rows = list(rows)
    cols = None if cols is None else list(cols)
    matrix = product.matrix([p for _, p in rows],
                            None if cols is None else [p for _, p in cols])
    return GramReport(product.describe(), [lab for lab, _ in rows],
                      [lab for lab, _ in (rows if cols is None else cols)], matrix,
                      separate_columns=cols is not None)


def labeled(polys: Sequence[Polynomial], prefix: str = "p") -> list[tuple[str, Polynomial]]:
    return [(f"{prefix}{i}", p) for i, p in enumerate(polys)]

