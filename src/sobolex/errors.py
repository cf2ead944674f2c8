"""Mathematical precondition failures raised across the package."""


class SobolexError(Exception):
    """Base class for precondition failures with a mathematical meaning."""


class NonIntegrableWeight(SobolexError):
    """A weight exponent is <= -1, so the requested integral does not exist."""


class NonPolynomialQuotient(SobolexError):
    """Dividing by the weight left a negative or non-integer exponent."""


class ZeroDenominator(SobolexError):
    """A shifted-factorial denominator vanished for the given parameters."""


class NonPositiveForm(SobolexError):
    """A Sobolev form's coefficients do not make it an inner product."""
