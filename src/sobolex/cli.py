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
from typing import Callable, NamedTuple

from . import bases, polynomials, products, scalars, spaces, suites
from .errors import SobolexError

# the keys of `suites.SUITES` and "all", here so that the parser does not load it
SUITE_NAMES = ("jacobi", "triangle", "rodrigue", "monomial", "lemmas4",
               "thm31", "thm34", "thm36", "all")


def _parse_gamma(text: str, d: int | None) -> scalars.ParamVector:
    gamma = scalars.ParamVector.parse(text)
    if d not in (None, gamma.d):
        raise ValueError(f"--gamma needs {d + 1} entries for --d {d}")
    return gamma


def _parse_indices(text: str, d: int) -> list[int]:
    """1-based coordinate indices, d+1 meaning the hyperplane 1-|x| = 0."""
    out = []
    for part in text.split(","):
        i = scalars.parse_int(part)
        if not scalars.is_index(i, 1, d + 1):
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
    lams = None if text is None else [scalars.as_fraction(p) for p in text.split(",")]
    return products.SingularProduct(gamma, lam_vertex=lams)


class Choice(NamedTuple):
    """A family or a spec: the one option it reads, and whether it needs it."""
    flag: str | None = None
    needs: bool = False


FAMILIES = {"rodrigue": Choice(), "monomial": Choice(), "permuted": Choice("--order", True),
            "h": Choice("--zero-set", True), "u": Choice("--lambda-vertex")}
SPECS = {"classical": Choice(), "epd": Choice("--epd-order"), "sobolev": Choice("--lambda-vertex")}


def _given(args: argparse.Namespace, flag: str):
    return getattr(args, flag[2:].replace("-", "_"), None)


def _check_flags(args: argparse.Namespace, *chosen: Choice | None) -> None:
    """A flag that a family or spec reads, given where none of the `chosen` ones
    reads it, is a usage error; the first such flag in `OPTIONS` order is named."""
    read = {choice.flag for choice in chosen if choice}
    for flag in OPTIONS:
        readers = [f"the {name} {kind}" for kind, table in (("family", FAMILIES), ("spec", SPECS))
                   for name, choice in table.items() if choice.flag == flag]
        if readers and flag not in read and _given(args, flag) is not None:
            raise ValueError(f"{flag} applies only to {' and '.join(readers)}")


def _build_basis(option: str, args: argparse.Namespace, gamma: scalars.ParamVector,
                 form: products.SingularProduct | None = None) -> bases.Basis:
    """The family that `option` (--family, or gram's --basis) names; the u
    family reads `form`, the Sobolev form, if the command has built it."""
    family = getattr(args, option[2:])
    flag, needs = FAMILIES[family]
    if needs and not _given(args, flag):
        raise ValueError(f"{option} {family} needs {flag}")
    if family == "rodrigue":
        return bases.rodrigues_basis(gamma, args.n)
    if family == "monomial":
        return bases.monomial_basis(gamma, args.n)
    if family == "permuted":
        return bases.permuted_basis(gamma, tuple(_parse_indices(args.order, gamma.d)), args.n)
    if family == "h":
        return spaces.h_space(gamma, _parse_indices(args.zero_set, gamma.d), args.n)
    # u, its form in its own statement: a weight refused there does not load `spaces`
    form = form or _sobolev_form(gamma, args)
    return spaces.u_space(form, args.n)


def _build_product(args: argparse.Namespace, gamma: scalars.ParamVector):
    if args.spec == "classical":
        return products.ClassicalProduct(gamma)
    if args.spec == "epd":
        return products.DerivativeProduct(gamma, 1 if args.epd_order is None else args.epd_order)
    return _sobolev_form(gamma, args)


def cmd_basis(args: argparse.Namespace) -> dict:
    _check_flags(args, FAMILIES[args.family])
    return _build_basis("--family", args, _parse_gamma(args.gamma, args.d)).to_json()


def cmd_inner(args: argparse.Namespace) -> dict:
    _check_flags(args, SPECS[args.spec])
    product = _build_product(args, _parse_gamma(args.gamma, args.d))
    f, g = (polynomials.Polynomial.from_json(json.loads(text, parse_int=scalars.parse_int))
            for text in (args.f, args.g))
    return {"spec": product.describe(), "value": str(product.value(f, g))}


def cmd_gram(args: argparse.Namespace) -> dict:
    _check_flags(args, FAMILIES.get(args.basis), SPECS[args.spec])
    gamma = _parse_gamma(args.gamma, args.d)
    product = _build_product(args, gamma)
    if args.basis == "monomials":
        rows = products.labeled(polynomials.monomial_polys(gamma.d, args.n))
    else:
        form = product if args.spec == "sobolev" else None  # the u family's, built once
        rows = [(str(key), p) for key, p in _build_basis("--basis", args, gamma, form).elements]
    cols = None if args.against == "self" else products.labeled(product.below(args.n))
    return products.gram(product, rows, cols).to_json()


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


# each option's add_argument keywords; `_check_flags` names an extra flag in this order
OPTIONS = {
    "--d": dict(help="ambient dimension (default: that of --gamma, else 2)"),
    "--n": dict(required=True, help="degree of the family, rows or eigenspace"),
    "--gamma": dict(required=True, help="comma-separated rational exponents, d+1 entries"),
    "--pretty": dict(action="store_true"),
    "--lambda-vertex": dict(help="comma-separated vertex coefficients (all exponents -1)"),
    "--order": dict(help="1-based coordinate order (permuted family); d+1 is the hyperplane"),
    "--zero-set": dict(help="1-based zeroed coordinates (h family)"),
    "--epd-order": dict(help="derivative order for --spec epd (default 1)"),
    "--family": dict(default="rodrigue", choices=list(FAMILIES)),
    "--basis": dict(default="monomials", choices=[*FAMILIES, "monomials"]),
    "--spec": dict(default="classical", choices=list(SPECS)),
    "--against": dict(default="lower", choices=["lower", "self"]),
    "--f": dict(required=True, help="polynomial JSON"),
    "--g": dict(required=True, help="polynomial JSON"),
    "--suite": dict(required=True, choices=SUITE_NAMES,
                    help="jacobi, triangle and thm31 run at their own d only"),
    "--n-max": dict(default="3"),
}


class Command(NamedTuple):
    run: Callable[[argparse.Namespace], dict]
    help: str
    options: str  # the options it takes, in usage order
    own: dict = {}  # the options whose keywords are its own, not those of OPTIONS


COMMANDS = {
    "basis": Command(cmd_basis, "construct a polynomial family as JSON",
                     "--d --n --gamma --pretty --family --order --zero-set --lambda-vertex"),
    "inner": Command(cmd_inner, "evaluate one inner product",
                     "--d --gamma --spec --epd-order --lambda-vertex --f --g --pretty"),
    "gram": Command(cmd_gram, "Gram matrix report for a basis",
                    "--d --n --gamma --pretty --spec --epd-order --basis --against --order "
                    "--zero-set --lambda-vertex"),
    "eigen": Command(cmd_eigen, "verify one singular eigenspace",
                     "--d --n --gamma --pretty --lambda-vertex"),
    "verify": Command(cmd_verify, "run a named verification suite",
                      "--suite --d --n-max --gamma --pretty", {
        "--gamma": dict(action="append",
                        help="override the sampled exponent vectors (repeatable)")}),
    "report": Command(cmd_report, "run every suite and summarize", "--d --n-max --pretty"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sobolex",
        description="Exact constructions and verification for classical and "
                    "Sobolev orthogonal polynomials on the simplex.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.options.split():
            p.add_argument(flag, **command.own.get(flag, OPTIONS[flag]))
    # let values like "-1,-1,-1" or "-1/2,0,1" parse as arguments, not flags
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"^-\d")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # `scalars.parse_int` alone bounds what is read, and every result prints
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for name in ("d", "n", "n_max", "epd_order"):  # each numeral by the one integer rule
            if getattr(args, name, None) is not None:
                setattr(args, name, scalars.parse_int(getattr(args, name)))
        if not scalars.is_index(getattr(args, "n", 0), 0):
            raise ValueError(f"--n must be >= 0, not {args.n}")
        if args.d is not None and not scalars.is_index(args.d, 1):
            raise ValueError(f"--d must be >= 1, not {args.d}")
        payload = COMMANDS[args.command].run(args)
        style = {"indent": 2} if args.pretty else {"separators": (",", ":")}
        sys.stdout.write(json.dumps(payload, sort_keys=True, **style) + "\n")
        return 0 if payload.get("ok", True) else 1
    except SobolexError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
