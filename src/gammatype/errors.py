"""Exception hierarchy shared by all gammatype modules, and the checks of
the numbers a caller passes in (``real``, ``integer`` and ``number``)."""

import cmath
import math
import sys
from numbers import Complex, Integral, Real

_INT_MAX = int(sys.float_info.max)  # an int: int comparisons are fast


class GammaTypeError(Exception):
    """Base class for all errors raised by this package."""


class PoleError(GammaTypeError):
    """Evaluation requested at (or too close to) a Gamma pole."""

    def __init__(self, location, message=None):
        self.location = location
        super().__init__(message or f"pole at {location}")


class ValidationError(GammaTypeError, ValueError):
    """Invalid argument to a form constructor or operation."""


class InvalidFormError(GammaTypeError):
    """Form cannot be the moment function of a positive random variable."""


class UndecidedStripError(GammaTypeError):
    """The pole walk met no strip edge within its visit budget."""


class ParameterError(GammaTypeError, ValueError):
    """Distribution parameters violate the entry's existence conditions."""

    def __init__(self, entry, condition):
        self.entry = entry
        self.condition = condition
        super().__init__(f"{entry}: violated condition: {condition}")


class UnknownEntryError(GammaTypeError, KeyError):
    """No catalog entry has the requested name."""

    __str__ = BaseException.__str__  # KeyError's would quote the message


class UnrepresentableError(GammaTypeError):
    """The requested distribution has no Gamma-type representation."""


class MomentRangeError(GammaTypeError, ValueError):
    """Requested moment order lies outside the usable range."""


class InversionError(GammaTypeError):
    """Numerical density inversion is unsupported for this form."""


def _converted(convert, value, kind):
    """convert(value) if value is a number of kind (not a bool, nor a str,
    which is none), else None, as for an int past the float range."""
    if type(value) is int or type(value) is not bool and isinstance(value, kind):
        try:
            return convert(value)
        except OverflowError:
            pass
    return None


def _shown(value) -> str:
    """repr(value), or the bit length of an int too long to repr (past
    sys.get_int_max_str_digits())."""
    try:
        return repr(value)
    except ValueError:
        return f"an integer of {value.bit_length()} bits"


def real(value, what: str, finite: bool = True) -> float:
    """value as a finite float (any float, nan and inf too, if not finite),
    else ValidationError naming what."""
    x = value if type(value) is float else _converted(float, value, Real)
    if x is not None and (not finite or math.isfinite(x)):
        return x
    raise ValidationError(f"{what} must be a {'finite ' if finite else ''}"
                          f"real, got {_shown(value)}")


def integer(value, what: str) -> int:
    """value as an int in the float range, else ValidationError naming what."""
    n = value if type(value) is int else _converted(int, value, Integral)
    if type(n) is int and -_INT_MAX <= n <= _INT_MAX:
        return n
    raise ValidationError(f"{what} must be an integer in the float range, "
                          f"got {_shown(value)}")


def number(value, what: str) -> complex:
    """value as a finite complex, else ValidationError naming what."""
    w = value if type(value) is complex else _converted(complex, value, Complex)
    if w is not None and cmath.isfinite(w):
        return w
    raise ValidationError(f"{what} must be a finite number, "
                          f"got {_shown(value)}")
