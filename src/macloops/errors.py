"""Exception taxonomy shared across the package, and its one scalar rule.

ConfigurationError covers bad inputs detected before any computation runs
(dimension mismatches, invalid probabilities, non-PSD covariances).
NumericalError and its subclasses cover failures of the numeric machinery
at runtime.  The CLI maps ConfigurationError to exit code 3,
NumericalError to exit code 4 and file-system errors (OSError) to 5.
`_integer` and `_real` check every scalar field of the package: a bool, a
non-real value or one outside the field's closed range [low, high] raises a
ConfigurationError "{name} must be {what}, got {value!r}" naming the field.
"""

import math
import numbers
import sys


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


# (what, low, high) of the closed ranges that recur; an open end is its neighbouring float
_FINITE = ("a finite number", -sys.float_info.max, sys.float_info.max)
_NOT_NAN = ("a real number other than NaN", -math.inf, math.inf)
_NONNEGATIVE = ("a finite number >= 0", 0.0, sys.float_info.max)
_POSITIVE = ("positive and finite", math.ulp(0.0), sys.float_info.max)
_PROBABILITY = ("a probability in [0,1]", 0.0, 1.0)


def _integer(value, name: str, what: str, low: float, high: float = math.inf) -> int:
    """`value` as an int in [low, high], low possibly -inf; anything else,
    bools, NaN and infinities included, raises a ConfigurationError whose `field` is `name`."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (low <= value <= high and value % 1 == 0)):
        raise ConfigurationError(f"{name} must be {what}, got {value!r}", field=name)
    return int(value)


# the most of one count that a run may ask for: its episodes, or the steps
# of one of its loops
MAX_COUNT = 10 ** 7


def _count(value, name: str, what: str) -> int:
    """`value` as an int >= 1, checked as `_integer` checks it, and at most
    MAX_COUNT, so that a run too large to allocate is refused unbuilt."""
    count = _integer(value, name, what, 1)
    if count > MAX_COUNT:
        raise ConfigurationError(f"{name} must be at most {MAX_COUNT:,}, got {value!r}",
                                 field=name)
    return count


def _real(value, name: str, what: str = "a real number", low=None, high=math.inf) -> float:
    """`value` as a Python float in [low, high], or as any float, NaN and
    infinities included, if `low` is None; a bool, anything that is not a
    real number, an int beyond float range or a value outside the range
    raises a ConfigurationError whose `field` is `name`."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigurationError(f"{name} must be {what}, got {value!r}", field=name)
        try:
            value = float(value)
        except OverflowError:
            raise ConfigurationError(f"{name} must be within float range", field=name) from None
    if low is not None and not low <= value <= high:
        raise ConfigurationError(f"{name} must be {what}, got {value!r}", field=name)
    return value
