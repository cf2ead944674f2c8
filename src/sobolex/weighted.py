"""`WeightedForm`, the closed class c * x^alpha * (1-|x|)^beta with rational
exponents: the reference construction engine, which no library path uses.

It builds a Rodrigues-style element from its definition: shift the weight,
differentiate term by term, divide the weight back out.  No module of the
package imports this one and it serves no name of `sobolex.__all__`: the
bases use the closed-form Leibniz kernel of `bases.py`, and `tests/oracles.py`
builds its reference elements with `WeightedForm`.  It stays in the package
because the benchmark's tracer (`perfbench/tracer.py`) names its methods.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import NonPolynomialQuotient
from .polynomials import Polynomial, complement_power
from .scalars import ParamVector, Rational, as_fraction

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
        if gamma.d != self.dim:
            raise ValueError("parameter vector has wrong dimension")
        out = Polynomial(self.dim)
        for (alpha, beta), coef in self._terms.items():
            exps = []
            for a, g in zip(alpha, gamma[:-1]):
                r = a - g
                if r.denominator != 1 or r < 0:
                    raise NonPolynomialQuotient(
                        f"residual exponent {r} is not a nonnegative integer")
                exps.append(int(r))
            rb = beta - gamma[-1]
            if rb.denominator != 1 or rb < 0:
                raise NonPolynomialQuotient(
                    f"residual exponent {rb} is not a nonnegative integer")
            piece = Polynomial.monomial(self.dim, exps, coef)
            if rb:
                piece = piece * complement_power(self.dim, int(rb))
            out = out + piece
        return out
