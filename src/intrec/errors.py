"""Exception types shared across the package."""


class IntrecError(Exception):
    """Base class for all package-specific errors."""


class ZeroDenominator(IntrecError):
    """Rational function constructed with a zero denominator."""


class ReverseUnsupportedDegreeProfile(IntrecError):
    """Sequence does not have the deg p_i <= i / deg q_j = j profile."""


class NotExpandable(IntrecError):
    """Denominator vanishes at t=0, so no Taylor expansion exists."""


class NoTelescoperFound(IntrecError):
    """No order up to max_order has a telescoper in the search's ansatz.

    largest is (rows, columns, t-degree) of the largest system solved, the
    one with the most entries, or None when unknown; the message names it.
    """

    def __init__(self, max_order, largest=None):
        text = "no telescoper up to order %d" % max_order
        if largest is not None:
            text += " (largest system %dx%d at t-degree %d)" % largest
        super().__init__(text)
        self.max_order = max_order
        self.largest = largest


class BoundaryNotEvaluable(IntrecError):
    """Certificate has a non-removable singularity at an endpoint."""


class ZeroOperator(IntrecError):
    """Differential operator with all-zero coefficients."""


class RecurrenceRefuted(IntrecError):
    """Supplied terms contradict the recurrence; signals an upstream bug."""


class SingularLeadingCoefficient(IntrecError):
    def __init__(self, n):
        super().__init__("leading coefficient vanishes at n=%d" % n)
        self.n = n


class ExactOracleUnavailable(IntrecError):
    """Exact integration requires a purely polynomial kernel."""


class QuadratureFailed(IntrecError):
    """Numeric quadrature did not reach the requested accuracy."""


class ValueTooLarge(IntrecError):
    """A value has more digits than Python converts to a string."""


class UnsupportedKernel(IntrecError):
    """Kernel form not recognized, so it cannot be evaluated numerically."""


class ParseError(IntrecError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class UnknownVariable(ParseError):
    def __init__(self, name, position):
        ParseError.__init__(self, "unknown variable %r" % name, position)
        self.name = name


class DivisionByZeroExpr(IntrecError):
    """Expression divides by something that lowers to zero."""


class InvalidJob(IntrecError):
    """Job document fails validation before any computation starts."""


class NoGuessFound(IntrecError):
    """Guessing exhausted the order/degree grid without a verified recurrence."""


class StageFailure(IntrecError):
    """Pipeline stage failed; wraps the underlying error with the stage name."""

    def __init__(self, stage, error):
        super().__init__("stage %s: %s" % (stage, error))
        self.stage = stage
        self.error = error
