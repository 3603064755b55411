"""Exception types shared across the package, and the one check of an
integer read from outside."""

import numbers


class QmetricError(Exception):
    """Base class for every error raised by this library."""


class InputError(QmetricError):
    """Malformed data, mismatched shapes, or a violated precondition."""


class BoundViolation(QmetricError):
    """A certified inequality failed to hold within its tolerance."""


class UnsupportedSpec(QmetricError):
    """The requested seminorm spec has no implemented computation path."""


def _integer(value, what: str, low: int = 0, high=None) -> int:
    """value as an int; InputError unless it is a Python or numpy integer
    in low..high-1 (no upper end when high is None).  A bool is not one,
    nor is a float, 2.0 included."""
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and low <= value and (high is None or value < high)):
        return int(value)
    wanted = ("an integer in %d..%d" % (low, high - 1) if high is not None
              else "a nonnegative integer" if low == 0 else "an integer >= %d" % low)
    raise InputError("%s must be %s, got %r" % (what, wanted, value))
