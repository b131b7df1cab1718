"""Exception types shared across the package.

FlowcommError is the base of the errors a verb reports: NotHyperbolic
(an input matrix is not hyperbolic), DocumentError (a certificate
document is malformed or unsupported) and ComputationLimit (an integer
to print would pass the interpreter's int/str digit limit). A wrong
argument to a lower-level function, one that no verb passes (a singular
basis, a genus below 2, traces that differ), raises ValueError.
"""

__all__ = ["FlowcommError", "NotHyperbolic", "DocumentError", "ComputationLimit"]


class FlowcommError(Exception):
    """Base class for all library errors."""


class NotHyperbolic(FlowcommError):
    """Matrix is not hyperbolic: det != 1 or trace <= 2."""


class DocumentError(FlowcommError):
    """Malformed or unsupported certificate document."""


class ComputationLimit(FlowcommError):
    """An integer to print would pass the interpreter's int/str digit
    limit."""
