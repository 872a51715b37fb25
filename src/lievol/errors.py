"""Exception hierarchy shared across the package."""


class LievolError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedGroupError(LievolError, ValueError):
    """Family/rank combination outside the supported simple types."""


class ParameterDomainError(LievolError, ValueError):
    """Input violates a domain precondition (t = 0, vanishing parameter, z out of range)."""


class DivergenceSetError(LievolError, ValueError):
    """The requested integral is taken at a point of the divergence set."""


class IntegrandEvaluationError(LievolError, ArithmeticError):
    """An integrand sample came back non-finite.

    Carries the offending abscissa so the caller can locate the problem.
    """

    def __init__(self, abscissa, value):
        self.abscissa = abscissa
        self.value = value
        super().__init__(f"integrand returned {value!r} at x = {abscissa!r}")


class InvariantViolationError(LievolError, AssertionError):
    """An internal consistency condition failed; indicates a bug, not bad input."""
