"""The scalar helpers, their judges of a rational and of an index, and
`ParamVector` and `face_params`, the weight exponents and their faces."""

import contextlib
import io
import math
import random
import re
import sys
from fractions import Fraction

import pytest

from sobolex.bases import (biorthogonal_constant, eigencheck, eigenvalue,
                           jacobi_negative_one_beta, jacobi_negative_one_one, jacobi_norm,
                           jacobi_p, jacobi_shifted, permuted_element, rodrigues_element)
from sobolex.cli import main
from sobolex.errors import NonIntegrableWeight
from sobolex.moments import inner_product, vertex_eval
from sobolex.polynomials import (Polynomial, complement_power, monomial_polys, monomials_of_degree,
                                 monomials_up_to)
from sobolex.products import ClassicalProduct, DerivativeProduct, SingularProduct
from sobolex.scalars import (MAX_DIGITS, ParamVector, as_fraction, face_params, factorial,
                             is_index, parse_int, pochhammer, rising, zero_set)
from sobolex.spaces import expected_dimension, u_space, verify_u_space
from sobolex.suites import run_suite

from oracles import binomial


def test_pochhammer_values():
    assert pochhammer(Fraction(5), 0) == 1
    assert pochhammer(3, 2) == 12
    assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)
    assert pochhammer(-2, 3) == 0


def test_rising_is_its_definition():
    # a -1 weight entry gives start 0, and start + i * step crosses zero
    rng = random.Random(43)
    cases = [(start, step) for step in (1, 2, 6) for start in range(-13, 14)]
    cases += [(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 1000)) for _ in range(200)]
    for start, step in cases:
        for k in range(9):
            want = 1
            for i in range(k):
                want *= start + i * step
            assert rising(start, step, k) == want, (start, step, k)


def test_pochhammer_is_a_fraction_product():
    for a in (Fraction(-3, 2), Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(5, 2)):
        for k in range(8):
            want = Fraction(1)
            for j in range(k):
                want *= a + j
            got = pochhammer(a, k)
            assert type(got) is Fraction and got == want, (a, k)
    assert pochhammer("1/3", 2) == Fraction(4, 9)
    with pytest.raises(ValueError):
        pochhammer(Fraction(1, 3), -1)


def test_pochhammer_composition():
    rng = random.Random(1309)
    for _ in range(200):
        a = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
        j = rng.randint(0, 6)
        k = rng.randint(0, 6)
        assert pochhammer(a, j + k) == pochhammer(a, j) * pochhammer(a + j, k)


def test_binomial():
    assert binomial(4, 2) == 6
    assert binomial(7, 0) == 1
    assert binomial(2, 3) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_factorial():
    assert factorial(0) == 1
    assert factorial(5) == 120


def test_rational_round_trip():
    assert as_fraction(" -2/4") == Fraction(-1, 2)
    # every rational the library prints is str() of a Fraction
    assert as_fraction(str(Fraction(-22, 7))) == Fraction(-22, 7)


def test_as_fraction_rejects_floats():
    # a bool is an int to Python, but not an exact rational to the library
    for value in (0.5, True, False):
        with pytest.raises(ValueError, match="is not an exact rational"):
            as_fraction(value)
    with pytest.raises(ValueError, match="^zero denominator in '1/0'$"):
        as_fraction("1/0")


# the one integer rule, that of p and q in "p/q": ASCII digits only, and a
# numeral with more digits than int() converts refused in the package's own
# words, not with Python's advice to raise sys.set_int_max_str_digits()
LONG = "1" * 5000
NUMERALS = [
    (parse_int, "\u0661", "^'\u0661' is not an integer$"),
    (parse_int, "1_0", "^'1_0' is not an integer$"),
    (parse_int, "1/2", "^'1/2' is not an integer$"),
    (parse_int, LONG, "^a 5000-character numeral is too long to read$"),
    (parse_int, f" -{LONG}", "^a 5001-character numeral is too long to read$"),
    (as_fraction, "\u0661", "^'\u0661' is not an exact rational$"),
    (as_fraction, "1_0", "^'1_0' is not an exact rational$"),
    (as_fraction, LONG, "^a 5000-character numeral is too long to read$"),
    (as_fraction, "1/" + "1" * 4301, "^a 4301-character numeral is too long to read$"),
]


@pytest.mark.parametrize("read, text, message", NUMERALS,
                         ids=[f"{read.__name__}-{text[:8]!r}-{len(text)}"
                              for read, text, _ in NUMERALS])
def test_one_integer_rule_refuses_in_its_own_words(read, text, message):
    with pytest.raises(ValueError, match=message):
        read(text)


def test_parse_int_reads_a_signed_ascii_numeral():
    assert [parse_int(t) for t in ("0", " +3", "-12 ", "0007")] == [0, 3, -12, 7]
    assert as_fraction("9" * 4300 + "/3") == int("3" * 4300)


def _read(text: str) -> int | str:
    """What `parse_int` makes of `text`: an int, or the message of its refusal."""
    try:
        return parse_int(text)
    except ValueError as exc:
        return str(exc)


def test_the_digit_bound_is_the_packages_own_not_the_interpreters():
    # with the interpreter's limit lifted, as `cli.main` lifts it, the bound
    # still stands, at 4,300 digits whatever the sign and leading zeros
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        got = [_read(lead + "0" * k + "9") for lead in ("", " -") for k in (4299, 4300)]
    finally:
        sys.set_int_max_str_digits(limit)
    assert MAX_DIGITS == 4300
    assert got == [9, "a 4301-character numeral is too long to read",
                   -9, "a 4302-character numeral is too long to read"]


def test_the_library_reads_past_the_interpreters_least_limit():
    # 640 is the least limit the interpreter accepts for int(); whatever it is
    # set to, the package reads up to MAX_DIGITS digits and refuses more itself
    ones = "1" * 700
    coef = {"d": 1, "terms": [{"exp": [0], "coef": f" -0{ones}"}]}
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        got = [parse_int(ones), as_fraction("1/" + ones),
               Polynomial.from_json(coef).coefficient((0,))]
        refused = [_read("9" * 4301), _read(f"-{'9' * 4301}")]
    finally:
        sys.set_int_max_str_digits(limit)
    value = (10 ** 700 - 1) // 9
    assert got == [value, Fraction(1, value), -value]
    assert refused == ["a 4301-character numeral is too long to read",
                       "a 4302-character numeral is too long to read"]


def test_zero_set_takes_only_ints_in_range():
    # True == 1 == 1.0 == Fraction(1), so each would pass as the index 1
    assert zero_set([2, 0, 2], 2) == frozenset({0, 2})
    for zeroed in ([True], [0, 1.0], [Fraction(1)], [-1], [3], ["0"]):
        with pytest.raises(ValueError, match="bad face index"):
            zero_set(zeroed, 2)


def test_is_index_takes_exactly_the_ints_in_range():
    assert [v for v in range(-3, 6) if is_index(v, 0, 2)] == [0, 1, 2]
    assert is_index(10 ** 30, 1) and is_index(-7, -math.inf)
    # True == 1 == 1.0 == Fraction(1), yet none of them is an index
    for value in (True, False, 1.0, Fraction(1), "1", None):
        assert not is_index(value, 0, 2), value


H = Fraction(1, 2)


def test_param_vector_basics():
    g = ParamVector(["1/2", -1, 0])
    assert g.d == 2
    assert g.total == -H
    assert g == (H, -1, 0)
    assert [i for i, v in enumerate(g) if v == -1] == [1]
    assert (str(g), repr(g)) == ("1/2,-1,0", "ParamVector(1/2,-1,0)")
    with pytest.raises(NonIntegrableWeight, match=r"^weight exponents \(1/2,-1,0\) are not"):
        g.integrable()
    flat = ParamVector([0, 0])
    assert flat.integrable() is flat
    assert g.shifted([0, 2, 1]) == ParamVector([H, 1, 1])
    assert g.with_values({1: 5}) == ParamVector([H, 5, 0])
    with pytest.raises(ValueError):
        ParamVector([1])
    with pytest.raises(ValueError):  # not ParamVector(1,0,0)
        ParamVector([True, False, 0])


def test_param_vector_shift_has_one_entry_per_exponent():
    with pytest.raises(ValueError, match="shift has wrong length"):
        ParamVector([0, 0, 0]).shifted([1, 1])


def test_param_vector_is_the_tuple_of_its_fractions():
    g = ParamVector(["1/2", 0, -1])
    assert g == (H, Fraction(0), Fraction(-1)) and hash(g) == hash((H, Fraction(0), Fraction(-1)))
    assert [type(v) for v in g] == [Fraction] * 3
    assert {(H, 0, -1): "key"}[g] == "key"
    assert type(g[:-1]) is tuple and g[:-1] == (H, 0)
    assert len(g) == g.d + 1 == 3


def test_param_vector_is_immutable():
    g = ParamVector([0, 0])
    with pytest.raises(TypeError):
        g[0] = Fraction(1)
    with pytest.raises(AttributeError):  # a new attribute: the vector has no other state
        setattr(g, "entries", (Fraction(1), Fraction(1)))
    assert g == (0, 0) and not hasattr(g, "entries")


@pytest.mark.parametrize("entries, split", [
    # a trailing block of k = 1..d+1 entries -1, at d = 1 and d = 3
    ([H, -1], ((H,), 1)),
    ([-1, -1], ((), 2)),
    ([H, 0, 2, -1], ((H, 0, 2), 1)),
    ([H, 0, -1, -1], ((H, 0), 2)),
    ([H, -1, -1, -1], ((H,), 3)),
    ([-1, -1, -1, -1], ((), 4)),
    # no -1 at all: k = 0 is not a singular weight
    ([H, 2], "needs a trailing block of -1 entries"),
    ([H, 0, 2, 1], "needs a trailing block of -1 entries"),
    # a -1 outside the trailing block
    ([0, -1, 0], "must form a trailing block"),
    ([-1, 0, -1], "must form a trailing block"),
    # an entry below -1, inside or next to a trailing block, or after a -1
    # that is not trailing: the entry below -1 is the fault named
    ([0, 0, Fraction(-3, 2)], "below -1"),
    ([Fraction(-3, 2), -1, -1], "below -1"),
    ([0, -1, -2], "below -1"),
])
def test_singular_split(entries, split):
    gamma = ParamVector(entries)
    if isinstance(split, str):
        with pytest.raises(ValueError, match=split):
            gamma.singular_split()
    else:
        assert gamma.singular_split() == split


def test_face_params_plain():
    g = ParamVector([1, 2, 3, 4])
    assert face_params(g, {1}) == ParamVector([1, 3, 4])
    assert face_params(g, {0, 2}) == ParamVector([2, 4])


def test_face_params_hyperplane():
    g = ParamVector([1, 2, 3, 4])
    # zeroing the hyperplane eliminates the highest surviving coordinate
    assert face_params(g, {3}) == ParamVector([1, 2, 3])
    assert face_params(g, {0, 3}) == ParamVector([2, 3])
    with pytest.raises(ValueError):
        face_params(g, set())
    with pytest.raises(ValueError, match="bad face index"):
        face_params(g, [True])


ONE_VAR = Polynomial.variable(2, 0)
FLAT = ParamVector([0, 0, 0])

# each entry point that takes a rational, called with the value to judge, and
# the values it must refuse: the one judge `as_fraction` names the value
# itself, whatever the path to it
NOT_EXACT = (0.5, True, None)
RATIONAL_ENTRY_POINTS = [
    ("ParamVector", lambda v: ParamVector([v, 0]), NOT_EXACT),
    ("Polynomial", lambda v: Polynomial(2, {(1, 0): v}), NOT_EXACT),
    ("constant", lambda v: Polynomial.constant(2, v), NOT_EXACT),
    ("times", lambda v: ONE_VAR * v, NOT_EXACT),
    ("plus", lambda v: ONE_VAR + v, NOT_EXACT),
    ("minus", lambda v: ONE_VAR - v, NOT_EXACT),
    ("pochhammer", lambda v: pochhammer(v, 2), NOT_EXACT),
    ("jacobi_shifted", lambda v: jacobi_shifted(2, v, 0), NOT_EXACT),
    ("jacobi_p", lambda v: jacobi_p(2, v, 0), NOT_EXACT),
    ("jacobi_norm", lambda v: jacobi_norm(2, v, 0), NOT_EXACT),
    ("jacobi_negative_one_beta", lambda v: jacobi_negative_one_beta(2, v), NOT_EXACT),
    ("jacobi_negative_one_one", lambda v: jacobi_negative_one_one(2, v), NOT_EXACT),
    # lam=None is lam's own default, the value 1
    ("lam", lambda v: SingularProduct(ParamVector([0, 0, -1]), lam=v), NOT_EXACT[:2]),
    ("lam_axis", lambda v: SingularProduct(ParamVector([0, -1, -1]), lam_axis=[v]), NOT_EXACT),
    ("lam_face", lambda v: SingularProduct(ParamVector([0, -1, -1, -1]),
                                           lam_face={frozenset({1}): v}), NOT_EXACT),
    ("lam_vertex", lambda v: SingularProduct(ParamVector([-1, -1, -1]), lam_vertex=[v, 1, 1]),
     NOT_EXACT),
    ("lambdas", lambda v: DerivativeProduct(FLAT, 1, {frozenset({0}): v}), NOT_EXACT),
    # a string is read only in the form "p/q" of ASCII digits: no exponent
    # (1e1000000 would build a million-digit int first), decimal point,
    # underscore or other script's digit
    ("as_fraction", as_fraction, ("1e3", "0.5", "1_000", "\u0663", "1e1000000")),
]


@pytest.mark.parametrize("call, value", [(call, v) for _, call, values in RATIONAL_ENTRY_POINTS
                                         for v in values],
                         ids=[f"{name}-{v!r}" for name, _, values in RATIONAL_ENTRY_POINTS
                              for v in values])
def test_every_rational_entry_point_refuses_what_is_not_exact(call, value):
    with pytest.raises(ValueError, match=f"^{re.escape(repr(value))} is not an exact rational$"):
        call(value)

# each entry point that takes an index, exponent, degree or dimension (at
# d = 2), the message of its own guard, and the values it must refuse: a bool
# and a float always, the low bound - 1 and the high bound + 1 where it has one
INDEX_GUARDS = [
    ("Polynomial dim", lambda v: Polynomial(v), "dimension must be", (True, 1.0, -1)),
    ("constant dim", lambda v: Polynomial.constant(v, 1), "dimension must be", (True, 1.0, -1)),
    ("Polynomial exponent", lambda v: Polynomial(2, {(v, 0): 1}), "bad exponent",
     (True, 1.0, -1)),
    ("variable", lambda v: Polynomial.variable(2, v), "axis", (True, 1.0, -1, 2)),
    ("partial", lambda v: ONE_VAR.partial(v), "axis", (True, 1.0, -1, 2)),
    ("substitute", lambda v: ONE_VAR.substitute(v, ONE_VAR), "axis", (True, 1.0, -1, 2)),
    ("pullback dim", lambda v: ONE_VAR.pullback((0, 1), v), "bad targets", (True, 1.0, -1)),
    ("pullback target", lambda v: ONE_VAR.pullback((v, 0)), "bad targets", (True, 1.0, -1, 3)),
    ("power", lambda v: ONE_VAR ** v, "power", (True, 1.0, -1)),
    ("zero_set", lambda v: zero_set([v], 2), "bad face index", (True, 1.0, -1, 3)),
    ("with_values", lambda v: FLAT.with_values({v: 5}), "bad entry ind", (True, 1.0, -1, 3)),
    ("multi-index", lambda v: rodrigues_element(FLAT, (v, 0)), "bad multi-index",
     (True, 1.0, -1)),
    ("permuted order", lambda v: permuted_element(FLAT, (v, 2), (1, 0)),
     "bad coordinate order", (True, 1.0, -1, 3)),
    ("key axis", lambda v: DerivativeProduct(FLAT, 1, {frozenset({v}): 2}), "key",
     (True, 1.0, -1, 2)),
    ("derivative order", lambda v: DerivativeProduct(FLAT, v), "order must lie in",
     (True, 1.0, 0, 3)),
    ("vertex_eval", lambda v: vertex_eval(ONE_VAR, v), "vertex index", (True, 1.0, -1, 3)),
    ("eigenvalue", lambda v: eigenvalue(FLAT, v), "degree", (True, 1.0, -1)),
    ("eigencheck", lambda v: eigencheck(FLAT, ONE_VAR, v), "degree", (True, 1.0, -1)),
    ("pochhammer", lambda v: pochhammer(Fraction(1, 3), v), "pochhammer", (True, 1.0, -1)),
    ("factorial", lambda v: factorial(v), "factorial needs", (True, 1.0, -1)),
    ("jacobi_negative_one_beta", lambda v: jacobi_negative_one_beta(v, 0), "bad degree",
     (True, 1.0, -1)),
    ("jacobi_negative_one_one", lambda v: jacobi_negative_one_one(v), "bad degree",
     (True, 1.0, 0.0, -1)),
    ("expected_dimension dim", lambda v: expected_dimension(v, 2), "expected_dimension needs",
     (True, 1.0, 0)),
    ("expected_dimension n", lambda v: expected_dimension(2, v), "expected_dimension needs",
     (True, 1.0, -1)),
    ("monomials_of_degree dim", lambda v: monomials_of_degree(v, 2), "dimension",
     (True, 1.0, -1)),
    # a negative degree has no monomials
    ("monomials_of_degree degree", lambda v: monomials_of_degree(2, v), "degree", (True, 1.0)),
    ("monomials_up_to dim", lambda v: monomials_up_to(v, 2), "dimension", (True, 1.0, -1)),
    ("monomials_up_to degree", lambda v: monomials_up_to(2, v), "degree", (True, 1.0)),
    ("verify_u_space", lambda v: verify_u_space(SingularProduct(ParamVector([0, 0, -1])), v),
     "n must be", (True, 1.0, -1)),
    # a negative degree has an empty eigenspace
    ("u_space", lambda v: u_space(SingularProduct(ParamVector([0, 0, -1])), v), "n must be",
     (True, 1.0)),
    ("run_suite d", lambda v: run_suite("rodrigue", v, 1), "does not run at", (True, 1.0, 0)),
    ("run_suite n_max", lambda v: run_suite("rodrigue", 2, v), "n_max must be",
     (True, 1.0, -1)),
]


@pytest.mark.parametrize("call, message, values", [row[1:] for row in INDEX_GUARDS],
                         ids=[row[0] for row in INDEX_GUARDS])
def test_every_index_guard_refuses_a_bool_a_float_and_out_of_range(call, message, values):
    for value in values:
        with pytest.raises(ValueError, match=message):
            call(value)


def test_a_negative_degree_has_an_empty_eigenspace():
    assert u_space(SingularProduct(ParamVector([0, 0, -1])), -1).elements == []


def test_a_cache_keyed_by_an_int_refuses_a_bool_or_a_float():
    # True == 1 == 1.0 and all three hash alike, so a cache warmed with 1 that
    # keyed them alike would answer True and 1.0 from the entry of 1
    for cached in (monomial_polys, complement_power):
        cached(1, 1)
        for args in ((True, 1), (1.0, 1), (1, True), (1, 1.0)):
            with pytest.raises(ValueError):
                cached(*args)


# each entry point that needs an integrable weight, called at a weight of
# d = 1, and the one message all of them give for one that is not
T = Polynomial.variable(1, 0)
INTEGRABLE_ENTRY_POINTS = [
    ("inner_product", lambda g: inner_product(T, T, g)),
    ("ClassicalProduct.matrix", lambda g: ClassicalProduct(g).matrix([T, T * T])),
    ("biorthogonal_constant", lambda g: biorthogonal_constant(g, (1,))),
    # the weight of jacobi_norm(n, alpha, beta) is (1-x)^alpha x^beta: (beta, alpha)
    ("jacobi_norm", lambda g: jacobi_norm(1, g[1], g[0])),
]
NOT_INTEGRABLE = ["0,-1", "-1,1/2", "-3/2,-2"]


@pytest.mark.parametrize("call", [call for _, call in INTEGRABLE_ENTRY_POINTS],
                         ids=[name for name, _ in INTEGRABLE_ENTRY_POINTS])
@pytest.mark.parametrize("weight", NOT_INTEGRABLE)
def test_every_integrable_entry_point_refuses_alike(call, weight):
    with pytest.raises(NonIntegrableWeight,
                       match=f"^{re.escape(f'weight exponents ({weight}) are not all > -1')}$"):
        call(ParamVector.parse(weight))


@pytest.mark.parametrize("weight", NOT_INTEGRABLE)
def test_the_cli_refuses_a_weight_that_is_not_integrable_alike(weight):
    f = '{"d":1,"terms":[{"exp":[1],"coef":"1"}]}'
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["inner", "--d", "1", "--gamma", weight, "--f", f, "--g", f])
    assert (code, err.getvalue()) == (
        3, f"error: NonIntegrableWeight: weight exponents ({weight}) are not all > -1\n")
