"""The package's import surface: lazily loaded library modules and the
public names served from them."""

import importlib
import io
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path
from typing import Iterable

import pytest

import sobolex

SRC = Path(sobolex.__file__).parent
LIBRARY = sorted(p.stem for p in SRC.glob("*.py") if p.stem not in ("__init__", "cli"))

# `python -m sobolex.cli ARGS`, then report on stderr the library modules that
# were really loaded, not just registered, when the process exits
PROBE = """
import atexit, importlib.util, runpy, sys

def report():
    loaded = sorted(name[len("sobolex."):] for name, mod in sys.modules.items()
                    if name.startswith("sobolex.")
                    and type(mod) is not importlib.util._LazyModule)
    sys.stderr.write("loaded: " + " ".join(loaded) + "\\n")

atexit.register(report)
runpy.run_module("sobolex.cli", run_name="__main__", alter_sys=True)
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=60)


def _loaded_by(argv: list[str], exit_code: int) -> set[str]:
    done = _python("-c", PROBE, *argv)
    assert done.returncode == exit_code, done.stderr
    last = done.stderr.splitlines()[-1]
    assert last.startswith("loaded: ")
    return set(last[len("loaded: "):].split())


# the mathematics, and `weighted`, the reference engine that no command uses
HEAVY = {"bases", "linalg", "moments", "products", "spaces", "suites", "weighted"}


@pytest.mark.parametrize("argv, exit_code, unused", [
    (["--help"], 0, HEAVY | {"scalars"}),
    # parsing `verify` names its suites without loading `suites`
    (["verify", "--help"], 0, HEAVY | {"scalars"}),
    *(([command, "--help"], 0, HEAVY | {"scalars"})
      for command in ("basis", "inner", "gram", "eigen", "report")),
    (["verify", "--suite", "x"], 2, HEAVY | {"scalars"}),
    # a usage error that the benchmark sends as a negative control
    (["basis", "--d", "2", "--n", "1", "--family", "u", "--gamma", "0,-1,0"], 2,
     HEAVY | {"polynomials"}),
    (["basis", "--d", "2", "--n", "3", "--family", "permuted", "--gamma", "1,0,1/2",
      "--order", "3,2"], 0, {"products", "suites", "weighted"}),
    (["verify", "--suite", "thm36", "--d", "2", "--n-max", "1"], 0, {"weighted"}),
    # the benchmark's other requests: the precondition control (a weight that
    # is not integrable), a Sobolev eigenspace and a Sobolev Gram report
    (["inner", "--d", "2", "--gamma", "-1,0,0", "--spec", "classical",
      "--f", '{"d":2,"terms":[{"exp":[1,0],"coef":"1"}]}',
      "--g", '{"d":2,"terms":[{"exp":[0,1],"coef":"1"}]}'], 3,
     {"bases", "spaces", "suites", "weighted"}),
    (["eigen", "--d", "3", "--n", "4", "--gamma", "1,-1,-1,-1"], 0, {"suites", "weighted"}),
    (["gram", "--d", "3", "--n", "4", "--gamma", "-1,-1,-1,-1", "--spec", "sobolev",
      "--basis", "u", "--against", "lower"], 0, {"suites", "weighted"}),
    # `gram`'s default `--basis monomials` rows, which need no basis family
    (["gram", "--d", "2", "--n", "2", "--gamma", "0,0,0"], 0,
     {"bases", "spaces", "suites", "weighted"}),
], ids=["help", "verify-help", "basis-help", "inner-help", "gram-help", "eigen-help",
        "report-help", "verify-refused", "usage-error", "permuted", "thm36",
        "inner-control", "eigen", "gram-sobolev", "gram-monomials"])
def test_cli_loads_only_the_modules_its_command_uses(argv, exit_code, unused):
    loaded = _loaded_by(argv, exit_code)
    assert loaded <= set(LIBRARY) | {"cli"}
    assert not loaded & unused


def test_import_registers_every_library_module():
    # The benchmark's tracer imports sobolex.cli and then looks every traced
    # module up in sys.modules; a lazily registered module is there, and the
    # tracer's first attribute access loads it.
    done = _python("-c", "import sys, sobolex.cli; "
                         "print(*sorted(n for n in sys.modules if n.startswith('sobolex.')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [f"sobolex.{name}" for name in sorted(LIBRARY + ["cli"])]


def test_readme_python_block_runs():
    # the README's library example, as written, against the code as it is
    readme = (SRC.parents[1] / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    done = _python("-c", block)
    assert done.returncode == 0, done.stderr


PUBLIC_NAMES = [
    "Basis", "ClassicalProduct", "DerivativeProduct", "GramReport",
    "NonIntegrableWeight", "NonPolynomialQuotient", "NonPositiveForm", "ParamVector",
    "Polynomial", "SingularProduct", "SobolexError", "ZeroDenominator", "bases", "biorthogonal_constant", "eigencheck", "errors",
    "expected_dimension", "face_params", "gram", "h_space",
    "inner_product", "jacobi_negative_one_beta", "jacobi_negative_one_one",
    "jacobi_norm", "jacobi_p", "jacobi_shifted", "linalg", "moments", "monomial_basis",
    "monomial_element", "monomials_of_degree", "monomials_up_to",
    "permuted_basis", "permuted_element", "pochhammer", "polynomials", "products",
    "rodrigues_basis", "rodrigues_element", "scalars", "spaces", "u_space", "verify_u_space",
    "vertex_eval", "weighted",
]


def test_public_names_are_unchanged():
    assert sobolex.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(sobolex))


def test_public_name_is_its_defining_modules_object():
    for name in PUBLIC_NAMES:
        value = getattr(sobolex, name)
        if name in LIBRARY:
            assert value is sys.modules[f"sobolex.{name}"], name
        else:
            assert value is getattr(importlib.import_module(value.__module__), name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from sobolex import *", namespace)
    assert {name: namespace[name] for name in PUBLIC_NAMES} \
        == {name: getattr(sobolex, name) for name in PUBLIC_NAMES}


# public functions and classes that no library module names, which only the
# tests would call
UNUSED_PUBLIC = set()


def _used_names(sources: Iterable[str]) -> set[str]:
    """The names that the code of `sources` reads: every NAME token but the
    one that a def or class statement defines, so that a word in a comment or
    a string, a docstring too, is no use."""
    used = set()
    for text in sources:
        prev = None
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME and prev not in ("def", "class"):
                used.add(tok.string)
            prev = tok.string
    return used


def test_a_name_in_a_docstring_or_comment_is_no_use():
    source = 'def f():\n    """Calls integral."""\n    # integral\n    return 1\n\n\n' \
             'def integral():\n    return f()\n'
    assert "integral" not in _used_names([source])
    assert "integral" in _used_names([source + "integral()\n"])


def test_every_public_function_or_class_is_named_in_the_library():
    # a public name that no module of the package uses beyond its own def or
    # class statement is code that only the tests call
    used = _used_names(path.read_text() for path in SRC.glob("*.py")
                       if path.name != "__init__.py")
    unused = {name for name in PUBLIC_NAMES if name not in LIBRARY and name not in used}
    assert unused == UNUSED_PUBLIC


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(sobolex, "no_such_name")
