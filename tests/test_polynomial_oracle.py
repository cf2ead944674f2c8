"""`Polynomial`'s integer form against the Fraction-dict arithmetic it replaced.

Every operation runs on random polynomials with mixed denominators, zero
results and d = 0..3 (pullbacks to every target dimension 0..3), once on
`Polynomial` and once on `oracles.FractionPolynomial`.  The results must
have the same coefficients, and every `Polynomial` must keep its invariant:
a positive denominator, reduced content and no zero numerator.  A tamper
that skips the reduction, drops a denominator scale or expands 1 - |x|
wrongly must make some comparison fail.
"""

import itertools
import math
import random
import types
from fractions import Fraction

import pytest

from oracles import FractionPolynomial, evaluate
from sobolex import polynomials
from sobolex.polynomials import Polynomial

DENOMINATORS = (1, 2, 3, 4, 6, 9)
ROUNDS = 20
SEED = 6


def _random_pair(rng: random.Random, dim: int) -> tuple[Polynomial, FractionPolynomial]:
    terms = [(tuple(rng.randint(0, 3) for _ in range(dim)),
              Fraction(rng.randint(-6, 6), rng.choice(DENOMINATORS)))
             for _ in range(rng.randint(0, 5))]
    return Polynomial(dim, terms), FractionPolynomial(dim, terms)


def _invariant(p: Polynomial) -> bool:
    terms, den = p.scaled_to_integers()
    return den > 0 and all(terms.values()) and math.gcd(den, *terms.values()) == 1


def _agrees(ours, theirs) -> bool:
    if isinstance(theirs, FractionPolynomial):
        return (isinstance(ours, Polynomial) and ours.dim == theirs.dim
                and _invariant(ours) and dict(ours.items()) == theirs.terms)
    return ours == theirs


def _faces(dim: int):
    """Every zero set `restrict` takes: up to dim indices of 0..dim."""
    return itertools.chain.from_iterable(
        itertools.combinations(range(dim + 1), size) for size in range(dim + 1))


def _disagreements(seed: int) -> list[str]:
    """Names of the operations whose result differs from the oracle's."""
    rng = random.Random(seed)
    bad: list[str] = []

    def check(name, ours, theirs):
        if not _agrees(ours, theirs):
            bad.append(name)

    for dim in range(4):
        for _ in range(ROUNDS):
            (f, F), (g, G) = _random_pair(rng, dim), _random_pair(rng, dim)
            c = Fraction(rng.randint(-4, 4), rng.choice(DENOMINATORS))
            check("construct", f, F)
            check("add", f + g, F + G)
            check("add-scalar", c + f, c + F)
            check("sub", f - g, F - G)
            check("sub-self", f - f, F - F)
            check("rsub", c - f, c - F)
            check("cancel", (f + g) - g, F)
            check("mul", f * g, F * G)
            check("mul-scalar", f * c, F * c)
            check("rmul-scalar", c * f, c * F)
            check("mul-zero", f * 0, F * 0)
            k = rng.randint(0, 3)
            check("pow", f ** k, F ** k)
            point = [Fraction(rng.randint(-3, 3), rng.choice(DENOMINATORS)) for _ in range(dim)]
            check("evaluate", evaluate(f, point), F.evaluate(point))
            for exp in [*F.terms, (0,) * dim, (4,) * dim]:
                check("coefficient", f.coefficient(exp), F.coefficient(exp))
            check("to_json", f.to_json(), F.to_json())
            for axis in range(dim):
                check("partial", f.partial(axis), F.partial(axis))
                check("substitute", f.substitute(axis, g), F.substitute(axis, G))
            for target_dim in range(4):
                # each variable to 0, a variable or the complement 1 - |x|
                targets = [rng.choice([None, *range(target_dim + 1)]) for _ in range(dim)]
                check("pullback", f.pullback(targets, target_dim),
                      F.pullback(targets, target_dim))
            if dim:
                # the Leibniz kernel's map: dim slots onto the barycentric
                # coordinates of T^(dim-1), in a random order
                slots = rng.sample(range(dim), dim)
                check("pullback-slots", f.pullback(slots, dim - 1), F.pullback(slots, dim - 1))
            for zset in _faces(dim):
                check("restrict", f.restrict(zset), F.restrict(zset))
            routes = [Polynomial(dim, F.terms),
                      Polynomial(dim, [(e, str(v)) for e, v in F.terms.items()]),
                      Polynomial(dim, [(e, v / 2) for e, v in F.terms.items()] * 2),
                      Polynomial.from_json(F.to_json()),
                      (f + g) - g, f * 1, f.pullback(range(dim))]
            check("equality", all(r == f for r in routes) and f + 1 != f, True)
            check("hash", len({hash(r) for r in routes}), 1)
    return bad


def test_integer_form_agrees_with_the_fraction_oracle():
    assert _disagreements(SEED) == []


def _unreduced(acc, den):
    return {e: c for e, c in acc.items() if c}, den


# `polynomials.math` with an lcm that keeps the first denominator only
_FIRST_DENOMINATOR = types.SimpleNamespace(lcm=lambda *a: a[0] if a else 1, gcd=math.gcd)

TAMPERS = {
    "unreduced-content": ("_reduced", _unreduced),
    "dropped-lcm-scale": ("math", _FIRST_DENOMINATOR),
    "complement-power-one": ("complement_power", lambda dim, power: Polynomial.constant(dim, 1)),
}


@pytest.mark.parametrize("tamper", sorted(TAMPERS))
def test_oracle_comparison_catches_a_tampered_form(monkeypatch, tamper):
    name, wrong = TAMPERS[tamper]
    monkeypatch.setattr(polynomials, name, wrong)
    assert _disagreements(SEED)
