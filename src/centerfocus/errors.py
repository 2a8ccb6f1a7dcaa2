"""Exception types shared across the package."""


class CenterFocusError(Exception):
    """Base class for all package errors."""


class NonRealInput(CenterFocusError):
    """Complex coefficient data does not satisfy the reality condition."""


class NonNormalizedLinearPart(CenterFocusError):
    """Field linear part is not exactly (-y, x)."""


class OrderTooSmall(CenterFocusError):
    """Requested Lyapunov order below 2."""


class ObstructionNonzeroAverage(CenterFocusError):
    """An even-degree divergence slice has nonzero circle average.

    The field then admits no (H, g) decomposition; degree and the
    offending average are recorded.
    """

    def __init__(self, degree, value):
        self.degree = degree
        self.value = value
        super().__init__(f"divergence slice of degree {degree} has average {value}")


class DegreeMismatch(CenterFocusError):
    """Inverse-spec component has the wrong degree or is inhomogeneous."""


class LambdaZero(CenterFocusError):
    """The weak-center family is undefined at lambda = 0."""


class ZeroCurve(CenterFocusError):
    """Cofactor search against the zero polynomial."""


class PreconditionFailed(CenterFocusError):
    """A documented operation precondition does not hold."""


class NotQuasiHomogeneous(PreconditionFailed):
    """Nonlinear part is not concentrated in a single degree."""


class StepFailure(CenterFocusError):
    """Integrator step size underflowed or the solver gave up."""


class TimeBudgetExceeded(CenterFocusError):
    """Integration exceeded the configured time budget."""


class AngleStalled(CenterFocusError):
    """Polar angle stopped advancing before the turn closed."""


class Inconsistent(CenterFocusError):
    """Numeric displacement signs disagree across the sample grid."""


class UnknownName(CenterFocusError):
    """Catalog lookup for a name that is not registered."""


class MissingParam(CenterFocusError):
    """Catalog entry instantiated without a required parameter."""


class ParseError(CenterFocusError):
    """System document failed to parse; carries location context."""
