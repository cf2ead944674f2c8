"""Seeded request lists for the three benchmark workloads.

A workload run is a number of passes; a pass is a list of CLI requests (argv
lists for `python -m sobolex.cli`) that is sent in order by one client.  The
seed draws a permutation `sigma` of the exponent menu, and pass p takes its
exponent vectors as cyclic windows of `sigma` starting at p.  Over five
passes every coordinate meets every menu value exactly once, and a run of
four passes misses one window, so the work in a run depends little on the
seed while the inputs still change with it.  The program sees only the
generated arguments.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

MENU = ("0", "1/3", "1/2", "1", "2")

# Orders accepted by `basis --family permuted --d 2`: two distinct 1-based
# coordinates, 3 meaning the hyperplane 1-|x|.
ORDERS_D2 = tuple(f"{a},{b}" for a, b in itertools.permutations((1, 2, 3), 2))


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    exit_code: int = 0
    verdict: str | None = None  # "ok" or "all_zero": the key that must be true
    stderr: str | None = None   # text the error message must contain

    @property
    def key(self) -> str:
        return " ".join(self.argv)


# Negative controls, sent once per pass in every workload: a weight that is
# not integrable (precondition, exit 3) and a -1 entry that is not trailing
# (usage error, exit 2).
CONTROLS = (
    Request(("inner", "--d", "2", "--gamma", "-1,0,0", "--spec", "classical",
             "--f", '{"d":2,"terms":[{"exp":[1,0],"coef":"1"}]}',
             "--g", '{"d":2,"terms":[{"exp":[0,1],"coef":"1"}]}'),
            exit_code=3, stderr="NonIntegrableWeight"),
    Request(("basis", "--d", "2", "--n", "1", "--family", "u", "--gamma", "0,-1,0"),
            exit_code=2, stderr="usage error"),
)


def _window(sigma: tuple[str, ...], start: int, width: int) -> list[str]:
    return [sigma[(start + i) % len(sigma)] for i in range(width)]


def _gamma(free: list[str], k: int = 0) -> str:
    return ",".join(free + ["-1"] * k)


def _classical_d3(sigma, orders, p):
    out = []
    for suite, start in (("rodrigue", p), ("monomial", p), ("monomial", p + 2)):
        out.append(Request(("verify", "--suite", suite, "--d", "3", "--n-max", "3",
                            "--gamma", _gamma(_window(sigma, start, 4))),
                           verdict="ok"))
    return out


def _sobolev_d3(sigma, orders, p):
    def u_args(k, start):
        return ("--d", "3", "--n", "4", "--gamma",
                _gamma(_window(sigma, start, 4 - k), k))
    return [
        Request(("verify", "--suite", "thm36", "--d", "3", "--n-max", "3"), verdict="ok"),
        Request(("eigen",) + u_args(1, p), verdict="ok"),
        Request(("gram",) + u_args(2, p + 1)
                + ("--spec", "sobolev", "--basis", "u", "--against", "lower"),
                verdict="all_zero"),
        Request(("eigen",) + u_args(3, p + 3), verdict="ok"),
        Request(("gram",) + u_args(4, 0)
                + ("--spec", "sobolev", "--basis", "u", "--against", "lower"),
                verdict="all_zero"),
    ]


def _identities_d2(sigma, orders, p):
    out = [Request(("verify", "--suite", "thm31", "--n-max", "5"), verdict="ok")]
    for suite in ("triangle", "lemmas4"):
        out.append(Request(("verify", "--suite", suite, "--d", "2", "--n-max", "5",
                            "--gamma", _gamma(_window(sigma, p, 3))), verdict="ok"))
    for start, slot in ((p + 1, p), (p + 3, p + 3)):
        out.append(Request(("basis", "--d", "2", "--n", "8", "--family", "permuted",
                            "--gamma", _gamma(_window(sigma, start, 3)),
                            "--order", orders[slot % len(orders)])))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object          # (sigma, orders, pass index) -> list[Request]
    nominal_pass_s: float  # one pass at the commit that defined the benchmark

    def passes(self, seed: int, count: int) -> list[list[Request]]:
        rng = random.Random(f"{self.name}:{seed}")
        sigma = tuple(rng.sample(MENU, len(MENU)))
        orders = tuple(rng.sample(ORDERS_D2, len(ORDERS_D2)))
        return [self.build(sigma, orders, p) + list(CONTROLS) for p in range(count)]

    def universe(self) -> list[Request]:
        """Every request any seed can produce, in a fixed order."""
        seen: dict[str, Request] = {}
        for sigma in itertools.permutations(MENU):
            # rotations suffice: pass p pairs windows with order slots p and p+3
            for r in range(len(ORDERS_D2)):
                orders = ORDERS_D2[r:] + ORDERS_D2[:r]
                for p in range(len(MENU)):
                    for req in self.build(sigma, orders, p) + list(CONTROLS):
                        seen.setdefault(req.key, req)
        return list(seen.values())


WORKLOADS = {w.name: w for w in (
    Workload("classical-d3",
             "Eigenfunction and classical-orthogonality checks at d=3, where "
             "eigencheck and moment integrals carry the time and gram does not.",
             _classical_d3, 7.0),
    Workload("sobolev-d3",
             "Sobolev eigenspaces at d=3 for k=1..4 trailing -1 exponents, where "
             "gram, product values and face restrictions carry the time.",
             _sobolev_d3, 9.0),
    Workload("identities-d2",
             "Many small d=2 identities compared by equality, rank and span, plus "
             "large basis JSON, where basis construction carries the time.",
             _identities_d2, 7.0),
)}
