"""Exception types shared across the package.

Input and contract violations derive from FlowcommError directly;
resource exhaustion derives from ComputationLimit so callers (and the
CLI exit-code mapping) can tell "the answer is no" apart from "the
computation gave up".
"""


class FlowcommError(Exception):
    """Base class for all library errors."""


class NotHyperbolic(FlowcommError):
    """Matrix is not hyperbolic: det != 1 or trace <= 2."""


class InvalidGenus(FlowcommError):
    """Surface genus below 2."""


class SingularBasis(FlowcommError):
    """Basis matrix has determinant zero, spans no finite-index lattice."""


class NotUnimodular(FlowcommError):
    """Matrix determinant is not +-1."""


class TraceMismatch(FlowcommError):
    """Intertwiner equation requires equal traces."""


class ExponentMismatch(FlowcommError):
    """Certificate exponents do not equalize the power traces."""


class DocumentError(FlowcommError):
    """Malformed or unsupported certificate document."""


class ComputationLimit(FlowcommError):
    """A configured effort bound was exceeded before an answer was reached."""


class StepLimitExceeded(ComputationLimit):
    """Trace-sequence merge ran past max_steps.

    Carries the partial trace tables computed so far as `partial_a`
    and `partial_b`.
    """

    def __init__(self, message, partial_a=(), partial_b=()):
        super().__init__(message)
        self.partial_a = tuple(partial_a)
        self.partial_b = tuple(partial_b)
