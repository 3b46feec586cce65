"""Exception taxonomy shared across the package: two kinds.

ConfigurationError covers bad inputs detected before any computation runs
(dimension mismatches, invalid probabilities, non-PSD covariances).
NumericalError and its subclasses cover failures of the numeric machinery
at runtime.  The CLI maps ConfigurationError to exit code 3,
NumericalError to exit code 4 and file-system errors (OSError) to 5.
"""


class ConfigurationError(ValueError):
    """Invalid model, scheduler, network or scenario configuration.

    `field` may name the field of the object being built that is at fault,
    so that a parser can report its full path.
    """

    def __init__(self, message: str = "", field: str | None = None):
        super().__init__(message)
        self.field = field


class NumericalError(RuntimeError):
    """A numeric routine failed to produce a trustworthy result."""


class BracketingError(NumericalError):
    """Root finding was asked to search an interval with no sign change."""


class QuadratureError(NumericalError):
    """Adaptive quadrature did not converge within its subdivision budget."""


class DegenerateTruncationError(NumericalError):
    """A conditioning event has probability too small to normalize against."""
