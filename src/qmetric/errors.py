"""Exception types shared across the package, and the four checks of a
value read from outside: an integer, a real, a numeric array and a JSON
object."""

import math
import numbers
from itertools import chain

import numpy as np


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


def _real(value, what: str, positive: bool = False, nonnegative: bool = False) -> float:
    """value as a float; InputError unless it is a finite Python or numpy
    real, above 0 if positive, at least 0 if nonnegative.  A bool is not
    one, nor is a string, "1.5" included."""
    x = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int beyond the float range
            pass
    if math.isfinite(x) and not (positive and x <= 0.0 or nonnegative and x < 0.0):
        return x
    rule = ("positive and finite" if positive
            else "finite and nonnegative" if nonnegative else "finite")
    raise InputError("%s must be %s, got %r" % (what, rule, value))


def _holds_bool(value) -> bool:
    """Whether a bool, Python or numpy, or an array of bools sits anywhere
    in value's nest of lists and tuples; read one level at a time."""
    level = [value]
    while True:
        kinds = set(map(type, level))
        if bool in kinds or np.bool_ in kinds or np.ndarray in kinds and any(
                x.dtype == bool for x in level if type(x) is np.ndarray):
            return True
        if not any(issubclass(k, (list, tuple)) for k in kinds):
            return False
        level = list(chain.from_iterable(x for x in level if isinstance(x, (list, tuple))))


def _array(value, what: str, dtype=float) -> np.ndarray:
    """value as a new array of dtype (float or complex); InputError unless
    it is a rectangular array of numbers, real ones for float.  A bool or a
    string, numeric or not, is never a number: the dtype refuses an array of
    them, and a scan of the lists and tuples (_holds_bool) a bool among numbers."""
    noun = "real numbers" if dtype is float else "numbers"
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise InputError("%s must be a rectangular array of %s: %s"
                         % (what, noun, exc)) from None
    # the kinds of numpy's signed, unsigned, float and complex dtypes
    if arr.dtype.kind not in ("iuf" if dtype is float else "iufc"):
        raise InputError("%s must be a rectangular array of %s, got %s entries"
                         % (what, noun, arr.dtype.type.__name__.rstrip("_")))
    if isinstance(value, (list, tuple)) and _holds_bool(value):
        raise InputError("%s must be a rectangular array of %s, got a bool among them"
                         % (what, noun))
    return np.array(arr, dtype=dtype)


def _fields(data, what: str, **kinds) -> tuple:
    """The values of data's keys named in kinds, in order; InputError unless
    data is a JSON object holding each key with a value of its kind (a type)."""
    if not isinstance(data, dict):
        raise InputError("%s JSON must be an object, got %s" % (what, type(data).__name__))
    for key, kind in kinds.items():
        if key not in data or not isinstance(data[key], kind):
            raise InputError('%s JSON object needs a "%s" %s'
                             % (what, key, "key" if kind is object else kind.__name__))
    return tuple(data[key] for key in kinds)
