"""Command-line front end: construct bases, evaluate products, run suites.

All output is canonical JSON on stdout (stable key order, no whitespace), so
identical inputs produce byte-identical output; --pretty switches to indented
form.  Exit codes: 0 pass, 1 verification failure, 2 usage error, 3 violated
mathematical precondition.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .bases import Basis, monomial_basis, permuted_basis, rodrigues_basis
from .errors import SobolexError
from .polynomials import Polynomial, monomials_up_to
from .products import (ClassicalProduct, DerivativeProduct, SingularProduct,
                       gram, labeled)
from .scalars import parse_rational
from .spaces import h_space, u_space, verify_u_space
from .suites import FIXED_DIMENSION, SUITE_NAMES, run_suite
from .weighted import ParamVector

USAGE_EXIT = 2
MATH_EXIT = 3


def _emit(obj: dict, pretty: bool) -> None:
    if pretty:
        text = json.dumps(obj, sort_keys=True, indent=2)
    else:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")


def _parse_gamma(text: str, d: int) -> ParamVector:
    gamma = ParamVector.parse(text)
    if gamma.d != d:
        raise ValueError(f"--gamma needs {d + 1} entries for --d {d}")
    return gamma


def _parse_indices(text: str, d: int) -> list[int]:
    """1-based coordinate indices, d+1 meaning the hyperplane 1-|x| = 0."""
    out = []
    for part in text.split(","):
        i = int(part)
        if not 1 <= i <= d + 1:
            raise ValueError(f"index {i} out of range 1..{d + 1}")
        out.append(i - 1)
    return out


def _split_singular(gamma: ParamVector) -> tuple[tuple, int]:
    """Trailing run of -1 entries -> (tail, k); rejects -1 elsewhere."""
    entries = gamma.entries
    k = 0
    while k < len(entries) and entries[-1 - k] == -1:
        k += 1
    tail = entries[: len(entries) - k]
    if any(t == -1 for t in tail):
        raise ValueError("-1 entries must form a trailing block; permute "
                         "coordinates via --family permuted instead")
    if any(t < -1 for t in tail):
        raise ValueError("exponents below -1 are not supported")
    return tail, k


def _vertex_lambdas(args: argparse.Namespace, k: int) -> list | None:
    """--lambda-vertex, which only the all-singular weight (k = d+1) has."""
    if not args.lambda_vertex:
        return None
    if k != args.d + 1:
        raise ValueError("--lambda-vertex needs every --gamma entry to be -1")
    return [parse_rational(p) for p in args.lambda_vertex.split(",")]


def _check_lambda_vertex(args: argparse.Namespace, used: bool) -> None:
    """--lambda-vertex reaches only the u family and the sobolev spec."""
    if args.lambda_vertex and not used:
        raise ValueError("--lambda-vertex applies only to the u family and "
                         "the sobolev spec")


def _build_basis(family: str, args: argparse.Namespace) -> Basis:
    gamma = _parse_gamma(args.gamma, args.d)
    if family == "rodrigue":
        return rodrigues_basis(gamma, args.n)
    if family == "monomial":
        return monomial_basis(gamma, args.n)
    if family == "permuted":
        if not args.order:
            raise ValueError("--family permuted needs --order")
        return permuted_basis(gamma, tuple(_parse_indices(args.order, args.d)), args.n)
    if family == "h":
        if not args.zero_set:
            raise ValueError("--family h needs --zero-set")
        return h_space(gamma, _parse_indices(args.zero_set, args.d), args.n)
    if family == "u":
        tail, k = _split_singular(gamma)
        if k == 0:
            raise ValueError("--family u needs a trailing block of -1 entries")
        return u_space(args.d, tail, k, args.n, vertex_lambdas=_vertex_lambdas(args, k))
    raise ValueError(f"unknown family {family!r}")


def _build_product(args: argparse.Namespace):
    gamma = _parse_gamma(args.gamma, args.d)
    if args.spec == "classical":
        return ClassicalProduct(gamma)
    if args.spec == "epd":
        return DerivativeProduct(gamma, args.epd_order)
    if args.spec == "sobolev":
        tail, k = _split_singular(gamma)
        if k == 0:
            raise ValueError("--spec sobolev needs a trailing block of -1 entries")
        return SingularProduct(args.d, tail, k, lam_vertex=_vertex_lambdas(args, k))
    raise ValueError(f"unknown spec {args.spec!r}")


def cmd_basis(args: argparse.Namespace) -> int:
    _check_lambda_vertex(args, args.family == "u")
    basis = _build_basis(args.family, args)
    _emit(basis.to_json(), args.pretty)
    return 0


def cmd_inner(args: argparse.Namespace) -> int:
    _check_lambda_vertex(args, args.spec == "sobolev")
    product = _build_product(args)
    f = Polynomial.from_json(json.loads(args.f))
    g = Polynomial.from_json(json.loads(args.g))
    value = product.value(f, g)
    _emit({"spec": product.describe(), "value": str(value)}, args.pretty)
    return 0


def cmd_gram(args: argparse.Namespace) -> int:
    _check_lambda_vertex(args, args.spec == "sobolev" or args.basis == "u")
    product = _build_product(args)
    if args.basis == "monomials":
        rows = labeled([Polynomial.monomial(args.d, e)
                        for e in monomials_up_to(args.d, args.n)], "m")
    else:
        basis = _build_basis(args.basis, args)
        rows = [(str(key), p) for key, p in basis.elements]
    if args.against == "self":
        report = gram(product, rows)
    else:
        lower = labeled([Polynomial.monomial(args.d, e)
                         for e in monomials_up_to(args.d, args.n - 1)], "m")
        report = gram(product, rows, lower)
    _emit(report.to_json(), args.pretty)
    return 0


def cmd_eigen(args: argparse.Namespace) -> int:
    gamma = _parse_gamma(args.gamma, args.d)
    tail, k = _split_singular(gamma)
    if k == 0:
        raise ValueError("eigen needs a trailing block of -1 entries in --gamma")
    lams = _vertex_lambdas(args, k)
    product = None if lams is None else SingularProduct(args.d, tail, k, lam_vertex=lams)
    report = verify_u_space(args.d, tail, k, args.n, product)
    _emit(report, args.pretty)
    return 0 if report["ok"] else 1


def cmd_verify(args: argparse.Namespace) -> int:
    fixed = FIXED_DIMENSION.get(args.suite)
    if args.d is None:
        args.d = fixed or 2
    elif fixed is not None and args.d != fixed:
        raise ValueError(f"suite {args.suite!r} runs at d = {fixed} only, not --d {args.d}")
    gammas = None
    if args.gamma:
        gammas = [_parse_gamma(text, args.d) for text in args.gamma]
    result = run_suite(args.suite, d=args.d, n_max=args.n_max, gammas=gammas)
    _emit(result, args.pretty)
    return 0 if result["ok"] else 1


def cmd_report(args: argparse.Namespace) -> int:
    result = run_suite("all", d=args.d, n_max=args.n_max)
    summary = {
        "tool": "sobolex",
        "params": result["params"],
        "ok": result["ok"],
        "suite_verdicts": {s["suite"]: s["ok"] for s in result["suites"]},
        "detail": result,
    }
    _emit(summary, args.pretty)
    return 0 if result["ok"] else 1


class _Parser(argparse.ArgumentParser):
    # let values like "-1,-1,-1" or "-1/2,0,1" parse as arguments, not flags
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sobolex",
        description="Exact constructions and verification for classical and "
                    "Sobolev orthogonal polynomials on the simplex.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, n_help: str) -> None:
        p.add_argument("--d", type=int, default=2, help="ambient dimension")
        p.add_argument("--n", type=int, required=True, help=n_help)
        p.add_argument("--gamma", required=True,
                       help="comma-separated rational exponents, d+1 entries")
        p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("basis", help="construct a polynomial family as JSON")
    common(p, "total degree")
    p.add_argument("--family", default="rodrigue",
                   choices=["rodrigue", "monomial", "permuted", "h", "u"])
    p.add_argument("--order", help="1-based coordinate order for --family "
                                   "permuted; d+1 is the hyperplane")
    p.add_argument("--zero-set", help="1-based zeroed coordinates for --family h")
    p.add_argument("--lambda-vertex",
                   help="comma-separated vertex coefficients (family u, all "
                        "exponents -1)")

    p = sub.add_parser("inner", help="evaluate one inner product")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--gamma", required=True)
    p.add_argument("--spec", default="classical",
                   choices=["classical", "epd", "sobolev"])
    p.add_argument("--epd-order", type=int, default=1)
    p.add_argument("--lambda-vertex")
    p.add_argument("--f", required=True, help="polynomial JSON")
    p.add_argument("--g", required=True, help="polynomial JSON")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("gram", help="Gram matrix report for a basis")
    common(p, "degree of the row family")
    p.add_argument("--spec", default="classical",
                   choices=["classical", "epd", "sobolev"])
    p.add_argument("--epd-order", type=int, default=1)
    p.add_argument("--basis", default="monomials",
                   choices=["rodrigue", "monomial", "permuted", "h", "u",
                            "monomials"])
    p.add_argument("--against", default="lower", choices=["lower", "self"])
    p.add_argument("--order")
    p.add_argument("--zero-set")
    p.add_argument("--lambda-vertex")

    p = sub.add_parser("eigen", help="verify one singular eigenspace")
    common(p, "degree of the eigenspace")
    p.add_argument("--lambda-vertex")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=list(SUITE_NAMES))
    p.add_argument("--d", type=int,
                   help="ambient dimension (default 2; jacobi, triangle and "
                        "thm31 run at their own d only)")
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--gamma", action="append",
                   help="override the sampled exponent vectors (repeatable)")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("report", help="run every suite and summarize")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--pretty", action="store_true")

    return parser


COMMANDS = {
    "basis": cmd_basis,
    "inner": cmd_inner,
    "gram": cmd_gram,
    "eigen": cmd_eigen,
    "verify": cmd_verify,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "n", 0) < 0:
            raise ValueError(f"--n must be >= 0, not {args.n}")
        return COMMANDS[args.command](args)
    except SobolexError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return MATH_EXIT
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
