"""Sparse exact polynomials in d variables, with the face machinery of T^d.

A polynomial stores its coefficients as integer numerators over one positive
common denominator: a dict exponent-tuple -> nonzero int, and an int `den`
with gcd(den, *numerators) == 1.  That form is unique (den is the least
common denominator of the coefficients), so equality and hashing compare it
directly.  The ring operations, derivatives and pullbacks run in ints with
one gcd reduction per result.  Coefficients become `fractions.Fraction`s
only where they leave the class: `items`, `coefficient`, `sorted_terms`,
`to_json` and `repr`; kernels that sum coefficients read the integer view
from `scaled_to_integers`.

Variables are indexed 0..d-1.  The barycentric coordinates of T^d are
y_i = x_i and y_d = 1 - |x|, so the extra index d refers to the hyperplane
1 - |x| = 0 when a face is described.  Every vertex map of the simplex, and
every restriction to a face, is one `pullback`: each variable goes to 0 or
to a barycentric coordinate of the target simplex.  Terms serialize in
graded-lex order (total degree first, then lexicographic on the exponent
tuple).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from operator import add, mul
from typing import Iterable, Iterator, Mapping, Sequence

from .scalars import Rational, as_fraction, clear_denominators, is_index, zero_set

Exponents = tuple[int, ...]


def graded_lex_key(exp: Exponents) -> tuple[int, Exponents]:
    return (sum(exp), exp)


class Polynomial:
    """Immutable-by-convention sparse polynomial over the rationals."""

    __slots__ = ("dim", "_terms", "_den")

    def __init__(self, dim: int, terms: Mapping[Exponents, Rational] | Iterable[tuple[Exponents, Rational]] = ()):
        if not is_index(dim, 0):
            raise ValueError(f"dimension must be an integer >= 0, not {dim!r}")
        exps, coefs = [], []
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exp, coef in items:
            exp = tuple(exp)
            if len(exp) != dim or not all(is_index(e, 0) for e in exp):
                raise ValueError(f"bad exponent {exp} for dimension {dim}")
            exps.append(exp)
            coefs.append(as_fraction(coef))
        nums, den = clear_denominators(coefs)
        acc: dict[Exponents, int] = {}
        for exp, c in zip(exps, nums):
            acc[exp] = acc.get(exp, 0) + c
        self.dim = dim
        self._terms, self._den = _reduced(acc, den)

    @classmethod
    def _from_ints(cls, dim: int, acc: dict[Exponents, int], den: int) -> "Polynomial":
        """The polynomial sum(acc[e] x^e) / den, for int-tuple exponents of
        length dim, int values (zeros allowed) and den > 0; acc may become the
        new polynomial's storage."""
        self = object.__new__(cls)
        self.dim = dim
        self._terms, self._den = _reduced(acc, den)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, dim: int, value: Rational) -> "Polynomial":
        if not is_index(dim, 0):
            raise ValueError(f"dimension must be an integer >= 0, not {dim!r}")
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def variable(cls, dim: int, axis: int) -> "Polynomial":
        if not (is_index(dim, 1) and is_index(axis, 0, dim - 1)):
            raise ValueError(f"axis {axis} out of range for dimension {dim}")
        return cls.monomial(dim, [int(i == axis) for i in range(dim)])

    @classmethod
    def monomial(cls, dim: int, exp: Sequence[int], coef: Rational = 1) -> "Polynomial":
        return cls(dim, {tuple(exp): coef})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self._terms), default=-1)

    def coefficient(self, exp: Sequence[int]) -> Fraction:
        return Fraction(self._terms.get(tuple(exp), 0), self._den)

    def items(self) -> Iterator[tuple[Exponents, Fraction]]:
        den = self._den
        return ((e, Fraction(c, den)) for e, c in self._terms.items())

    def scaled_to_integers(self) -> tuple[dict[Exponents, int], int]:
        """(terms, q): the coefficients times their least common denominator
        q, as ints.  The dict is the polynomial's own storage, not a copy:
        do not mutate it."""
        return self._terms, self._den

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        return sorted(self.items(), key=lambda t: graded_lex_key(t[0]))

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.dim == other.dim and self._den == other._den
                and self._terms == other._terms)

    def __hash__(self) -> int:
        return hash((self.dim, self._den, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if self.is_zero:
            return "Polynomial(0)"
        bits = []
        for exp, coef in self.sorted_terms():
            mono = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}"
                            for i, e in enumerate(exp) if e)
            bits.append(f"{coef}{'*' + mono if mono else ''}")
        return "Polynomial(" + " + ".join(bits) + ")"

    # -- ring operations ---------------------------------------------------

    def _check_dim(self, other: "Polynomial") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "Polynomial | Rational") -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.dim, other)
        self._check_dim(other)
        den = math.lcm(self._den, other._den)
        s, t = den // self._den, den // other._den
        acc = {e: c * s for e, c in self._terms.items()} if s > 1 else dict(self._terms)
        for e, c in other._terms.items():
            acc[e] = acc.get(e, 0) + c * t
        return Polynomial._from_ints(self.dim, acc, den)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_ints(self.dim, {e: -c for e, c in self._terms.items()}, self._den)

    def __sub__(self, other: "Polynomial | Rational") -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.dim, other)
        return self + (-other)

    def __rsub__(self, other: Rational) -> "Polynomial":
        return Polynomial.constant(self.dim, other) - self

    def __mul__(self, other: "Polynomial | Rational") -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = as_fraction(other)
            p = c.numerator
            return Polynomial._from_ints(self.dim, {e: k * p for e, k in self._terms.items()},
                                         self._den * c.denominator)
        self._check_dim(other)
        acc: dict[Exponents, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(map(add, e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
        return Polynomial._from_ints(self.dim, acc, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not is_index(n, 0):
            raise ValueError(f"power must be an int >= 0, not {n!r}")
        return reduce(mul, [self] * n, Polynomial.constant(self.dim, 1))

    # -- calculus and substitution -----------------------------------------

    def partial(self, axis: int) -> "Polynomial":
        """Exact partial derivative with respect to x_axis."""
        if not is_index(axis, 0, self.dim - 1):
            raise ValueError(f"axis {axis} out of range for dimension {self.dim}")
        return Polynomial._from_ints(self.dim, {
            exp[:axis] + (exp[axis] - 1,) + exp[axis + 1:]: coef * exp[axis]
            for exp, coef in self._terms.items() if exp[axis]}, self._den)

    def substitute(self, axis: int, replacement: "Polynomial") -> "Polynomial":
        """Substitute x_axis := replacement (a polynomial in the same d variables)."""
        if not is_index(axis, 0, self.dim - 1):
            raise ValueError(f"axis {axis} out of range for dimension {self.dim}")
        self._check_dim(replacement)
        groups: dict[int, dict[Exponents, int]] = {}
        for exp, coef in self._terms.items():
            rest = exp[:axis] + (0,) + exp[axis + 1:]
            groups.setdefault(exp[axis], {})[rest] = coef
        out = Polynomial(self.dim)
        for e in range(max(groups, default=0), -1, -1):  # Horner, from the top power down
            out = out * replacement + Polynomial._from_ints(self.dim, groups.get(e, {}), self._den)
        return out

    def pullback(self, targets: Sequence[int | None], dim: int | None = None) -> "Polynomial":
        """Return f(u) with u_i = y_{targets[i]}, where y = (x_0, ..., x_{dim-1},
        1-|x|) are the barycentric coordinates of T^dim (dim defaults to
        self.dim); a None target sets u_i = 0."""
        dim = self.dim if dim is None else dim
        targets = tuple(targets)
        if (not is_index(dim, 0) or len(targets) != self.dim
                or not all(t is None or is_index(t, 0, dim) for t in targets)):
            raise ValueError(f"bad targets {targets} from dimension {self.dim} to {dim}")
        acc: dict[Exponents, int] = {}
        for exp, coef in self._terms.items():
            y = [0] * (dim + 1)
            for t, e in zip(targets, exp):
                if e:
                    if t is None:
                        break
                    y[t] += e
            else:
                j = y.pop()  # the power of y_dim = 1-|x|
                if not j:
                    key = tuple(y)
                    acc[key] = acc.get(key, 0) + coef
                    continue
                # (1 - |x|)^j has integer coefficients, so its den is 1
                for ce, cc in complement_power(dim, j)._terms.items():
                    key = tuple(map(add, y, ce))
                    acc[key] = acc.get(key, 0) + coef * cc
        return Polynomial._from_ints(dim, acc, self._den)

    def restrict(self, zeroed: Iterable[int]) -> "Polynomial":
        """Restrict to the face of T^d where the given coordinates vanish.

        Index self.dim stands for the hyperplane 1 - |x| = 0.  This is the
        pullback onto the face, whose barycentric coordinates are the
        surviving ones in their order: the result lives in d - len(zeroed)
        variables, and when the hyperplane index is zeroed the highest
        surviving variable becomes 1 - |x|.
        """
        zset = zero_set(zeroed, self.dim)
        if len(zset) > self.dim:
            raise ValueError(f"bad face {sorted(zset)} for dimension {self.dim}")
        survivors = [i for i in range(self.dim + 1) if i not in zset]
        place = {i: j for j, i in enumerate(survivors)}
        return self.pullback([place.get(i) for i in range(self.dim)], len(survivors) - 1)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "d": self.dim,
            "terms": [{"exp": list(exp), "coef": str(coef)}
                      for exp, coef in self.sorted_terms()],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "Polynomial":
        """Inverse of to_json; malformed input of any shape is a ValueError."""
        if not isinstance(data, Mapping) or not isinstance(data.get("terms"), list):
            raise ValueError("polynomial JSON must be an object with a list of terms")
        if "d" not in data:
            raise ValueError('polynomial JSON has no "d"')
        terms = []
        for t in data["terms"]:
            if not isinstance(t, Mapping) or not isinstance(t.get("exp"), list):
                raise ValueError(f"bad polynomial term {t!r}")
            if "coef" not in t:
                raise ValueError(f'polynomial term {t!r} has no "coef"')
            terms.append((t["exp"], t["coef"]))
        return cls(data["d"], terms)


def _reduced(acc: dict[Exponents, int], den: int) -> tuple[dict[Exponents, int], int]:
    """acc without its zero entries, and den > 0, both divided by their gcd.
    acc itself is returned when nothing changes, so pass a dict nobody else
    holds."""
    if 0 in acc.values():
        acc = {e: c for e, c in acc.items() if c}
    g = math.gcd(den, *acc.values())
    if g != 1:
        acc = {e: c // g for e, c in acc.items()}
        den //= g
    return acc, den


@lru_cache(maxsize=None, typed=True)
def complement_power(dim: int, power: int) -> Polynomial:
    """(1 - x_0 - ... - x_{dim-1}) ** power, multinomially expanded."""
    base = Polynomial.constant(dim, 1)
    for i in range(dim):
        base = base - Polynomial.variable(dim, i)
    return base ** power


def barycentric_product(dim: int, slots: Iterable[int]) -> Polynomial:
    """The product of the barycentric coordinates y_s of T^dim over the distinct `slots`."""
    chosen = zero_set(slots, dim)
    exp = [int(s in chosen) for s in range(dim + 1)]
    return Polynomial.monomial(dim + 1, exp).pullback(range(dim + 1), dim)


def monomials_of_degree(dim: int, degree: int) -> list[Exponents]:
    """All exponent tuples of total degree `degree`, none for a negative one,
    graded-lex sorted: the heads ascend and each tail list is lexicographic."""
    if not (is_index(dim, 0) and is_index(degree, -math.inf)):
        raise ValueError(f"bad dimension {dim!r} or degree {degree!r}")
    if dim == 0:
        return [()] if degree == 0 else []
    return [(head,) + tail for head in range(degree + 1)
            for tail in monomials_of_degree(dim - 1, degree - head)]


def monomials_up_to(dim: int, degree: int) -> list[Exponents]:
    top = monomials_of_degree(dim, degree)  # judges dim and degree first
    return [e for n in range(degree) for e in monomials_of_degree(dim, n)] + top


@lru_cache(maxsize=None, typed=True)
def monomial_polys(dim: int, degree: int) -> tuple[Polynomial, ...]:
    """The monomials x^e of degree <= `degree`, in `monomials_up_to` order:
    one cached tuple per (dim, degree), shared by every caller."""
    return tuple(Polynomial.monomial(dim, e) for e in monomials_up_to(dim, degree))
