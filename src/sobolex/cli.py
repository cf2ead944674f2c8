"""Command-line front end: construct bases, evaluate products, run suites.

Each `cmd_*` returns its JSON payload, and `main` alone writes it and picks
the exit code.  All output is canonical JSON on stdout (stable key order, no
whitespace), so identical inputs produce byte-identical output; --pretty
switches to indented form.  Exit codes: 0 pass, 1 verification failure (the
printed "ok" is false; `basis`, `inner` and `gram` print no "ok"), 2 usage
error, 3 violated mathematical precondition.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import bases, polynomials, products, scalars, spaces, suites
from .errors import SobolexError

# the keys of `suites.SUITES` and "all", here so that the parser does not load it
SUITE_NAMES = ("jacobi", "triangle", "rodrigue", "monomial", "lemmas4",
               "thm31", "thm34", "thm36", "all")

USAGE_EXIT = 2
MATH_EXIT = 3


def _parse_gamma(text: str, d: int) -> scalars.ParamVector:
    gamma = scalars.ParamVector.parse(text)
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
        if i - 1 in out:
            raise ValueError(f"index {i} repeated")
        out.append(i - 1)
    return out


def _sobolev_form(gamma: scalars.ParamVector,
                  args: argparse.Namespace) -> products.SingularProduct:
    """The Sobolev form of `gamma` and --lambda-vertex.  A weight that is not
    singular is refused by its split, before `products` loads; the form
    itself refuses --lambda-vertex below k = d+1 (a `ValueError`) and
    coefficients that leave it not positive (`NonPositiveForm`)."""
    gamma.singular_split()
    text = args.lambda_vertex
    lams = None if text is None else [scalars.parse_rational(p) for p in text.split(",")]
    return products.SingularProduct(gamma, lam_vertex=lams)


def _check_flags(args: argparse.Namespace, family: str | None = None,
                 spec: str | None = None) -> None:
    """A flag given where the family (or gram's --basis) and the spec do not
    read it is a usage error."""
    for flag, used, where in (
            ("lambda-vertex", family == "u" or spec == "sobolev",
             "the u family and the sobolev spec"),
            ("order", family == "permuted", "the permuted family"),
            ("zero-set", family == "h", "the h family"),
            ("epd-order", spec == "epd", "the epd spec")):
        if getattr(args, flag.replace("-", "_"), None) is not None and not used:
            raise ValueError(f"--{flag} applies only to {where}")


def _build_basis(family: str, args: argparse.Namespace) -> bases.Basis:
    gamma = _parse_gamma(args.gamma, args.d)
    if family == "rodrigue":
        return bases.rodrigues_basis(gamma, args.n)
    if family == "monomial":
        return bases.monomial_basis(gamma, args.n)
    if family == "permuted":
        if not args.order:
            raise ValueError("--family permuted needs --order")
        return bases.permuted_basis(gamma, tuple(_parse_indices(args.order, args.d)), args.n)
    if family == "h":
        if not args.zero_set:
            raise ValueError("--family h needs --zero-set")
        return spaces.h_space(gamma, _parse_indices(args.zero_set, args.d), args.n)
    if family == "u":
        # in its own statement, so that a refused weight does not load `spaces`
        form = _sobolev_form(gamma, args)
        return spaces.u_space(form, args.n)
    raise ValueError(f"unknown family {family!r}")


def _build_product(args: argparse.Namespace):
    gamma = _parse_gamma(args.gamma, args.d)
    if args.spec == "classical":
        return products.ClassicalProduct(gamma)
    if args.spec == "epd":
        return products.DerivativeProduct(gamma, 1 if args.epd_order is None else args.epd_order)
    if args.spec == "sobolev":
        return _sobolev_form(gamma, args)
    raise ValueError(f"unknown spec {args.spec!r}")


def cmd_basis(args: argparse.Namespace) -> dict:
    _check_flags(args, family=args.family)
    return _build_basis(args.family, args).to_json()


def cmd_inner(args: argparse.Namespace) -> dict:
    _check_flags(args, spec=args.spec)
    product = _build_product(args)
    f = polynomials.Polynomial.from_json(json.loads(args.f))
    g = polynomials.Polynomial.from_json(json.loads(args.g))
    return {"spec": product.describe(), "value": str(product.value(f, g))}


def cmd_gram(args: argparse.Namespace) -> dict:
    _check_flags(args, args.basis, args.spec)
    product = _build_product(args)
    if args.basis == "monomials":
        rows = products.labeled(polynomials.monomial_polys(args.d, args.n), "m")
    else:
        # U_n of the sobolev spec belongs to the form just built: not a second one
        basis = (spaces.u_space(product, args.n) if (args.basis, args.spec) == ("u", "sobolev")
                 else _build_basis(args.basis, args))
        rows = [(str(key), p) for key, p in basis.elements]
    if args.against == "self":
        return products.gram(product, rows).to_json()
    lower = products.labeled(polynomials.monomial_polys(args.d, args.n - 1), "m")
    return products.gram(product, rows, lower).to_json()


def cmd_eigen(args: argparse.Namespace) -> dict:
    form = _sobolev_form(_parse_gamma(args.gamma, args.d), args)
    return spaces.verify_u_space(form, args.n)


def cmd_verify(args: argparse.Namespace) -> dict:
    gammas = [scalars.ParamVector.parse(text) for text in args.gamma] if args.gamma else None
    return suites.run_suite(args.suite, d=args.d, n_max=args.n_max, gammas=gammas)


def cmd_report(args: argparse.Namespace) -> dict:
    result = suites.run_suite("all", d=args.d, n_max=args.n_max)
    return {
        "tool": "sobolex",
        "params": result["params"],
        "ok": result["ok"],
        "suite_verdicts": {s["suite"]: s["ok"] for s in result["suites"]},
        "detail": result,
    }


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
    p.add_argument("--epd-order", type=int, help="derivative order for --spec epd (default 1)")
    p.add_argument("--lambda-vertex")
    p.add_argument("--f", required=True, help="polynomial JSON")
    p.add_argument("--g", required=True, help="polynomial JSON")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("gram", help="Gram matrix report for a basis")
    common(p, "degree of the row family")
    p.add_argument("--spec", default="classical",
                   choices=["classical", "epd", "sobolev"])
    p.add_argument("--epd-order", type=int, help="derivative order for --spec epd (default 1)")
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
        if args.d is not None and args.d < 1:
            raise ValueError(f"--d must be >= 1, not {args.d}")
        payload = COMMANDS[args.command](args)
        style = {"indent": 2} if args.pretty else {"separators": (",", ":")}
        sys.stdout.write(json.dumps(payload, sort_keys=True, **style) + "\n")
        return 0 if payload.get("ok", True) else 1
    except SobolexError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return MATH_EXIT
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
