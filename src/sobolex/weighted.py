"""Weight exponents of the simplex weight x^g (1-|x|)^{g_{d+1}} and of its
restrictions to faces, and `WeightedForm`, the closed class
c * x^alpha * (1-|x|)^beta with rational exponents.

`WeightedForm` builds a Rodrigues-style element from its definition: shift
the weight, differentiate term by term, divide the weight back out.  No
library path uses it and it is not in `sobolex.__all__`: the library's bases
use the closed-form Leibniz kernel in `bases.py`, and `WeightedForm` is the
independent reference that `tests/oracles.py` builds its elements with.  It
stays in this module because the benchmark's tracer (`perfbench/tracer.py`)
still names its methods as targets.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .scalars import Rational, as_fraction, format_rational, parse_rational

if TYPE_CHECKING:
    from .polynomials import Polynomial


class ParamVector:
    """Weight exponents (g_1, ..., g_d, g_{d+1}) for x^g * (1-|x|)^{g_{d+1}}."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Rational | str]):
        vals = tuple(as_fraction(v) for v in entries)
        if len(vals) < 2:
            raise ValueError("need at least two entries (d >= 1)")
        object.__setattr__(self, "entries", vals)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("ParamVector is immutable")

    @property
    def d(self) -> int:
        return len(self.entries) - 1

    @property
    def last(self) -> Fraction:
        return self.entries[-1]

    @property
    def total(self) -> Fraction:
        return sum(self.entries, Fraction(0))

    @property
    def is_integrable(self) -> bool:
        return all(g > -1 for g in self.entries)

    def singular_split(self) -> tuple[tuple[Fraction, ...], int]:
        """(tail, k): the entries before the trailing block of -1 entries, and
        the size k >= 1 of that block; an entry below -1, a -1 elsewhere, or
        no -1 at all is a ValueError."""
        if any(g < -1 for g in self.entries):
            raise ValueError("exponents below -1 are not supported")
        k = 0
        while k < len(self.entries) and self.entries[-1 - k] == -1:
            k += 1
        tail = self.entries[:len(self.entries) - k]
        if -1 in tail:
            raise ValueError("-1 entries must form a trailing block; permute the "
                             "coordinates so that they do")
        if not k:
            raise ValueError("a singular weight needs a trailing block of -1 entries")
        return tail, k

    def shifted(self, deltas: Sequence[Rational]) -> "ParamVector":
        if len(deltas) != len(self.entries):
            raise ValueError("shift has wrong length")
        return ParamVector([g + as_fraction(t) for g, t in zip(self.entries, deltas)])

    def with_values(self, assignments: Mapping[int, Rational]) -> "ParamVector":
        vals = list(self.entries)
        for i, v in assignments.items():
            vals[i] = as_fraction(v)
        return ParamVector(vals)

    @classmethod
    def parse(cls, text: str) -> "ParamVector":
        return cls([parse_rational(p) for p in text.split(",")])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ParamVector) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return "ParamVector(" + ",".join(format_rational(g) for g in self.entries) + ")"

    def to_json(self) -> list[str]:
        return [format_rational(g) for g in self.entries]


def face_params(gamma: ParamVector, zeroed: Iterable[int]) -> ParamVector:
    """Exponents of the weight restricted to the face where `zeroed` vanish:
    the surviving entries, in order, as in Polynomial.restrict."""
    zset = frozenset(zeroed)
    if not zset <= set(range(gamma.d + 1)) or not 0 < len(zset) <= gamma.d - 1:
        raise ValueError(f"bad face {sorted(zset)} for dimension {gamma.d}")
    return ParamVector([g for i, g in enumerate(gamma.entries) if i not in zset])


PowerKey = tuple[tuple[Fraction, ...], Fraction]


class WeightedForm:
    """Finite sum of terms c * x^alpha * (1-|x|)^beta, rational exponents."""

    __slots__ = ("dim", "_terms")

    def __init__(self, dim: int, terms: Mapping[PowerKey, Rational] | Iterable[tuple[PowerKey, Rational]] = ()):
        self.dim = dim
        acc: dict[PowerKey, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (alpha, beta), coef in items:
            alpha = tuple(as_fraction(a) for a in alpha)
            if len(alpha) != dim:
                raise ValueError("alpha has wrong length")
            key = (alpha, as_fraction(beta))
            c = acc.get(key, Fraction(0)) + as_fraction(coef)
            if c:
                acc[key] = c
            else:
                acc.pop(key, None)
        self._terms = acc

    @classmethod
    def single(cls, dim: int, coef: Rational, alpha: Sequence[Rational], beta: Rational) -> "WeightedForm":
        return cls(dim, {(tuple(as_fraction(a) for a in alpha), as_fraction(beta)): coef})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self):
        return iter(self._terms.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedForm):
            return NotImplemented
        return self.dim == other.dim and self._terms == other._terms

    def __add__(self, other: "WeightedForm") -> "WeightedForm":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return WeightedForm(self.dim, list(self._terms.items()) + list(other._terms.items()))

    def scale(self, c: Rational) -> "WeightedForm":
        c = as_fraction(c)
        return WeightedForm(self.dim, {k: v * c for k, v in self._terms.items()})

    def __neg__(self) -> "WeightedForm":
        return self.scale(-1)

    def derivative(self, axis: int) -> "WeightedForm":
        """d/dx_axis, term by term:
        (x^a (1-|x|)^b)' = a_i x^{a-e_i} (1-|x|)^b - b x^a (1-|x|)^{b-1}."""
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} out of range")
        acc: list[tuple[PowerKey, Fraction]] = []
        for (alpha, beta), coef in self._terms.items():
            ai = alpha[axis]
            if ai:
                lowered = alpha[:axis] + (ai - 1,) + alpha[axis + 1:]
                acc.append(((lowered, beta), coef * ai))
            if beta:
                acc.append(((alpha, beta - 1), -coef * beta))
        return WeightedForm(self.dim, acc)

    def directional(self, operator: Sequence[tuple[int, int]]) -> "WeightedForm":
        """Apply a signed combination of partials, e.g. [(i,1),(j,-1)] for d_i - d_j."""
        out = WeightedForm(self.dim)
        for axis, sign in operator:
            out = out + self.derivative(axis).scale(sign)
        return out

    def divide_by_weight(self, gamma: ParamVector) -> Polynomial:
        """Divide by x^g (1-|x|)^{g_{d+1}} and expand into a sparse polynomial.

        Every residual exponent must be a nonnegative integer; otherwise the
        quotient leaves the polynomial ring and NonPolynomialQuotient is raised.
        """
        # imported here so that loading this module leaves `polynomials` unloaded
        from .errors import NonPolynomialQuotient
        from .polynomials import Polynomial, complement_power

        if gamma.d != self.dim:
            raise ValueError("parameter vector has wrong dimension")
        out = Polynomial.zero(self.dim)
        for (alpha, beta), coef in self._terms.items():
            exps = []
            for a, g in zip(alpha, gamma.entries[:-1]):
                r = a - g
                if r.denominator != 1 or r < 0:
                    raise NonPolynomialQuotient(
                        f"residual exponent {r} is not a nonnegative integer")
                exps.append(int(r))
            rb = beta - gamma.last
            if rb.denominator != 1 or rb < 0:
                raise NonPolynomialQuotient(
                    f"residual exponent {rb} is not a nonnegative integer")
            piece = Polynomial.monomial(self.dim, exps, coef)
            if rb:
                piece = piece * complement_power(self.dim, int(rb))
            out = out + piece
        return out
