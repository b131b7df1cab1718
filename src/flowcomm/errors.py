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


class DocumentError(FlowcommError):
    """Malformed or unsupported certificate document."""


class ComputationLimit(FlowcommError):
    """An integer to print would pass the interpreter's int/str digit
    limit."""
