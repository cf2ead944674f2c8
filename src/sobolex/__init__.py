"""Exact rational construction and verification of classical and Sobolev
orthogonal polynomials on the simplex T^d.  Each library module is compiled
and run only when a name is first read from it."""

import importlib.util
import sys

# module -> the names the package serves from it
_PUBLIC = {
    "bases": ("Basis", "biorthogonal_constant", "eigencheck", "jacobi_negative_one_beta",
              "jacobi_negative_one_one", "jacobi_norm", "jacobi_p", "jacobi_shifted",
              "monomial_basis", "monomial_element", "permuted_basis", "permuted_element",
              "rodrigues_basis", "rodrigues_element"),
    "errors": ("NonIntegrableWeight", "NonPolynomialQuotient", "NonPositiveForm",
               "SobolexError", "ZeroDenominator"),
    "linalg": (),
    "moments": ("inner_product", "vertex_eval"),
    "polynomials": ("Polynomial", "monomials_of_degree", "monomials_up_to"),
    "products": ("ClassicalProduct", "DerivativeProduct", "GramReport", "SingularProduct",
                 "gram"),
    "scalars": ("ParamVector", "face_params", "pochhammer"),
    "spaces": ("expected_dimension", "h_space", "u_space", "verify_u_space"),
    "weighted": (),
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}

# not `cli`: runpy warns when `-m sobolex.cli` finds it in sys.modules already
for _name in (*_PUBLIC, "suites"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])
del _name, _spec

__version__ = "0.1.0"

__all__ = sorted([*_PUBLIC, *_OWNER])


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER})
