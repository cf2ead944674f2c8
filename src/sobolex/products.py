"""Every bilinear form in the package, as a list of terms, plus the Gram report.

A form is a sum of terms lam * <A f, A g x^s>_W.  The image A differentiates
(a multi-index or a directional combination) and may restrict to a face of
T^d; W is the term's base weight and x^s an optional monomial multiplier on
the right-hand factor.  A term without a weight is a scalar product
lam * A(f) A(g) of point values.  Each class only lists its terms, built
once per form; one evaluator, `matrix`, computes every value and Gram matrix
from them, and every check in `suites` and `spaces` reads it, the all-zero
ones through `orthogonal`, and those against every lower degree through
`orthogonal_below`, the one place that turns a degree into its columns.  It
maps each row and each column polynomial through each term once, keeps the
images as integer coefficients over a common denominator, and pairs them by
moment sums (`MomentTable.pairings`), so no polynomial is built per pair.
Each entry is summed over the terms as an int numerator and denominator and
becomes one Fraction at the end; `gram` labels it into the printed
`GramReport`.

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
from functools import cached_property
from math import lcm
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import NonPositiveForm
from .linalg import positive_definite
from .moments import moment_table, vertex_eval
from .polynomials import Exponents, Polynomial, monomial_polys
from .scalars import Rational, as_fraction, format_rational
from .weighted import ParamVector

ONE = Fraction(1)
ZERO = Fraction(0)


def mass_ratio(params: ParamVector) -> str:
    """The reciprocal mass of a base weight as a symbolic Gamma-ratio string.

    Normalized values equal this constant times the plain integral; recording
    it keeps the rescaling of each term auditable even when it is irrational.
    """
    num = format_rational(params.total + params.d + 1)
    den = "*".join(f"Gamma({format_rational(g + 1)})" for g in params.entries)
    return f"Gamma({num})/({den})"


def _subset_keyed(lams: Mapping[frozenset[int], Rational] | None
                  ) -> dict[frozenset[int], Fraction]:
    """Subset-keyed coefficients as exact values; a key axis that is not an
    int (a bool too: `True` would pass as axis 1) is a ValueError."""
    out = {frozenset(s): as_fraction(v) for s, v in (lams or {}).items()}
    bad = [i for s in out for i in s if type(i) is not int]
    if bad:
        raise ValueError(f"a coefficient key axis must be an int, not {bad[0]!r}")
    return out


def _by_subset(lams: Mapping[frozenset[int], Rational]) -> dict[str, str]:
    """Subset-keyed coefficients as describe() writes them: "0+2" for {0, 2}."""
    return {"+".join(map(str, sorted(s))): format_rational(v) for s, v in lams.items()}


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
        return lambda f: f.partials(axes).restrict(zeroed)
    return lambda f: f.partials(axes)


def _vertex(j: int) -> Callable:
    """f -> f at vertex e_j of T^d, e_0 the origin."""
    return lambda f: vertex_eval(f, j)


class _TermForm:
    """A bilinear form given by the list `terms()`."""

    dim: int

    @cached_property
    def _terms(self) -> list[Term]:
        return self.terms()

    def _normalization(self) -> dict[str, str]:
        """The rescaling of every tagged term, zero-lambda ones included."""
        return {t.tag: "vertex" if t.weight is None else mass_ratio(t.weight)
                for t in self._terms if t.tag}

    def matrix(self, rows: Sequence[Polynomial],
               cols: Sequence[Polynomial] | None = None) -> list[list[Fraction]]:
        """Entry (i, j) is the form at (rows[i], cols[j]); cols None means
        cols = rows, where only j >= i is paired and the rest mirrored."""
        same = cols is None
        for p in itertools.chain(rows, () if same else cols):
            if p.dim != self.dim:
                raise ValueError(f"dimension mismatch: {p.dim} vs {self.dim}")
        # entry (i, j) is summed as the int fraction nums[i][j] / dens[i][j]
        ncols = len(rows if same else cols)
        nums = [[0] * ncols for _ in rows]
        dens = [[1] * ncols for _ in rows]
        for lam, image, weight, right, _ in (t for t in self._terms if t.lam):
            a = [image(f) for f in rows]
            b = a if same else [image(g) for g in cols]
            if weight is None:
                block = [[x.numerator * y.numerator for y in b] for x in a]
                rdens = [x.denominator for x in a]
                cdens = [y.denominator for y in b]
            else:
                block, rdens, cdens = moment_table(weight).pairings(a, b, right, upper=same)
            p = lam.numerator
            for num_line, den_line, values, r in zip(nums, dens, block, rdens):
                r *= lam.denominator
                for j, v in enumerate(values):
                    if v:
                        q = r * cdens[j]
                        old = den_line[j]
                        if old == q:
                            num_line[j] += p * v
                        else:
                            common = lcm(old, q)
                            num_line[j] = num_line[j] * (common // old) + p * v * (common // q)
                            den_line[j] = common
        out: list[list[Fraction]] = []
        for i, (num_line, den_line) in enumerate(zip(nums, dens)):
            start = i if same else 0
            out.append([out[j][i] for j in range(start)]
                       + [Fraction(n, q) if n else ZERO
                          for n, q in zip(num_line[start:], den_line[start:])])
        return out

    def value(self, f: Polynomial, g: Polynomial) -> Fraction:
        return self.matrix([f], [g])[0][0]

    def orthogonal(self, rows: Sequence[Polynomial], cols: Sequence[Polynomial]) -> bool:
        """Whether every polynomial in `rows` pairs to zero with every one in `cols`."""
        return not any(any(line) for line in self.matrix(rows, cols))

    def orthogonal_below(self, rows: Sequence[Polynomial], n: int) -> bool:
        """Whether every polynomial in `rows` is orthogonal to every polynomial
        of degree below n, that is, to the monomials of degree <= n - 1."""
        return self.orthogonal(rows, monomial_polys(self.dim, n - 1))


class ClassicalProduct(_TermForm):
    """The plain normalized pairing against an integrable simplex weight."""

    kind = "classical"

    def __init__(self, gamma: ParamVector):
        self.gamma = gamma
        self.dim = gamma.d

    def terms(self) -> list[Term]:
        return [Term(ONE, _derivative(()), self.gamma, tag="main")]

    def describe(self) -> dict:
        return {"kind": self.kind, "gamma": self.gamma.to_json(),
                "normalization": self._normalization()}


class DerivativeProduct(_TermForm):
    """Classical pairing plus weighted pairings of order-j mixed derivatives.

    For every subset S of coordinates with 1 <= |S| <= order, adds
    lambda_S <d^S f, d^S g> against the weight shifted by +1 on S and +j on
    the complement factor.  A lambda key that is no such S is a ValueError, a
    lambda < 0 a `NonPositiveForm` (0 is allowed: the classical term stays).
    """

    kind = "derivative"

    def __init__(self, gamma: ParamVector, order: int,
                 lambdas: Mapping[frozenset[int], Rational] | None = None):
        d = gamma.d
        if not 1 <= order <= d:
            raise ValueError("order must lie in 1..d")
        self.gamma = gamma
        self.dim = d
        self.order = order
        self.lambdas = _subset_keyed(lambdas)
        if not all(0 < len(s) <= order and s <= set(range(d)) for s in self.lambdas):
            raise ValueError(f"lambda keys must be nonempty subsets of 0..{d - 1} "
                             f"with at most {order} elements")
        if min(self.lambdas.values(), default=0) < 0:
            raise NonPositiveForm("the derivative form is not positive: every lambda must be >= 0")

    def terms(self) -> list[Term]:
        out = [Term(ONE, _derivative(()), self.gamma, tag="main")]
        for j in range(1, self.order + 1):
            for subset in itertools.combinations(range(self.dim), j):
                deltas = [1 if i in subset else 0 for i in range(self.dim)] + [j]
                out.append(Term(self.lambdas.get(frozenset(subset), ONE), _derivative(subset),
                                self.gamma.shifted(deltas),
                                tag="d" + "".join(str(i) for i in subset)))
        return out

    def describe(self) -> dict:
        return {"kind": self.kind, "gamma": self.gamma.to_json(), "order": self.order,
                "lambda": _by_subset(self.lambdas),
                "normalization": self._normalization()}


class SingularProduct(_TermForm):
    """The Sobolev pairing attached to a weight whose trailing k exponents are -1.

    Parameters: the weight gamma, split by `ParamVector.singular_split` (which
    refuses any other weight) into its leading exponents `tail` (all > -1)
    and k >= 1, and the coefficient families
      lam       -- the boundary/vertex coefficient of the final term (k <= d),
      lam_axis  -- per-coordinate coefficients of the gradient face term
                   (1 < k <= d; at k = 1 the gradient term is the main one,
                   with coefficient 1),
      lam_face  -- per-subset coefficients of the intermediate face terms,
                   keyed by proper nonempty subsets of the k-1 differentiated
                   axes, which exist only for k >= 3,
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

    kind = "singular"

    def __init__(self, gamma: ParamVector, lam: Rational | None = None,
                 lam_axis: Sequence[Rational] | None = None,
                 lam_face: Mapping[frozenset[int], Rational] | None = None,
                 lam_vertex: Sequence[Rational] | None = None):
        self.tail, k = gamma.singular_split()
        self.gamma, self.k = gamma, k
        dim = self.dim = gamma.d
        for name, given, taken in (("lam", lam, k <= dim), ("lam_axis", lam_axis, 1 < k <= dim),
                                   ("vertex coefficients (lam_vertex)", lam_vertex, k > dim)):
            if given is not None and not taken:
                raise ValueError(f"the Sobolev form at k = {k}, d = {dim} takes no {name}")
        self.lam = ONE if lam is None else as_fraction(lam)
        self.lam_axis = tuple(as_fraction(v) for v in
                              ((1,) * (dim - k + 1) if lam_axis is None else lam_axis))
        if len(self.lam_axis) != dim - k + 1:
            raise ValueError("lam_axis has wrong length")
        self.lam_face = _subset_keyed(lam_face)
        faces = {frozenset(s) for i in range(1, k - 1)
                 for s in itertools.combinations(self._mk, i)}
        if not self.lam_face.keys() <= faces:
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

    @property
    def _mk(self) -> list[int]:
        # the trailing k-1 true-coordinate axes, zero-based: the main term
        # differentiates all of them, each face term a proper nonempty subset
        return list(range(self.dim - self.k + 1, self.dim))

    def _derivative_terms(self, axes: list[int]) -> list[Term]:
        """The main term (every axis differentiated) and the face terms (a
        nonempty proper subset S differentiated, the other axes zeroed)."""
        tail, n = self.tail, len(axes)
        out = [Term(ONE, _derivative(axes), ParamVector(tail + (0,) * n + (n - 1,)),
                    tag="main")]
        for i in range(1, n):
            for subset in itertools.combinations(axes, i):
                out.append(Term(self.lam_face.get(frozenset(subset), ONE),
                                _derivative(subset, set(axes) - set(subset)),
                                ParamVector(tail + (0,) * i + (i - 1,)),
                                tag="face" + "".join(str(j) for j in subset)))
        return out

    def terms(self) -> list[Term]:
        d, k, tail = self.dim, self.k, self.tail
        if k == d + 1:
            return self._derivative_terms(list(range(d))) + [
                Term(lam, _vertex(j), None) for j, lam in enumerate(self.lam_vertex)]
        mk = self._mk
        out = self._derivative_terms(mk) if k > 1 else []
        # at k = 1 the gradient term is the main one, and the final term the boundary
        gradient_tag, final_tag = ("gradient-face", "final") if k > 1 else ("main", "boundary")
        # gradient term on the face where the trailing k-1 axes vanish
        fd = d - k + 1
        gradient = ParamVector(tail + (0,))
        out += [Term(self.lam_axis[i], _derivative((i,), mk), gradient,
                     tuple(int(j == i) for j in range(fd)), gradient_tag) for i in range(fd)]
        final = (_vertex(1), None) if k == d else (_derivative((), mk + [d]), ParamVector(tail))
        return out + [Term(self.lam, *final, tag=final_tag)]

    def describe(self) -> dict:
        out = {"kind": self.kind, "d": self.dim, "k": self.k,
               "tail": [format_rational(t) for t in self.tail],
               "normalization": self._normalization()}
        if self.k == self.dim + 1:
            out["lambda_vertex"] = [format_rational(v) for v in self.lam_vertex]
        else:
            out["lambda"] = format_rational(self.lam)
            out["lambda_axis"] = [format_rational(v) for v in self.lam_axis]
        if self.lam_face:
            out["lambda_face"] = _by_subset(self.lam_face)
        return out


class TermList(_TermForm):
    """A form written out as its list of terms; `kind` names it in describe()."""

    def __init__(self, dim: int, kind: str, terms: list[Term]):
        self.dim, self.kind, self.term_list = dim, kind, terms

    def terms(self) -> list[Term]:
        return self.term_list

    def describe(self) -> dict:
        return {"kind": self.kind}


# -- Gram machinery -----------------------------------------------------------

class GramReport:
    """The Gram matrix of `gram`, with its labels and form spec; `separate_columns`
    marks one against columns of its own (the lower-degree monomials).  Every
    flag is derived in `to_json()`; `diagonal` and `positive_definite` are null
    unless the Gram is nonempty and against its own rows (symmetric, since
    `matrix(rows)` mirrors its upper triangle)."""

    def __init__(self, spec: dict, row_labels: list[str], col_labels: list[str],
                 matrix: list[list[Fraction]], separate_columns: bool = False):
        self.spec = spec
        self.row_labels = row_labels
        self.col_labels = col_labels
        self.matrix = matrix
        self.separate_columns = separate_columns

    def to_json(self) -> dict:
        all_zero = not any(any(row) for row in self.matrix)
        own_rows = bool(self.matrix) and not self.separate_columns
        out = {
            "spec": self.spec,
            "rows": self.row_labels,
            "cols": self.col_labels,
            "matrix": [[format_rational(v) for v in row] for row in self.matrix],
            "all_zero": all_zero,
            "diagonal": all(not v for i, row in enumerate(self.matrix) for j, v in enumerate(row)
                            if i != j) if own_rows else None,
            "positive_definite": positive_definite(self.matrix) if own_rows else None,
        }
        if self.separate_columns:
            out["orthogonal_to_lower_degree"] = all_zero
        return out


def gram(product: _TermForm, rows: Sequence[tuple[str, Polynomial]],
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

