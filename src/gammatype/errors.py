"""Exception hierarchy shared by all gammatype modules."""


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

    def __init__(self, entry, condition, message=None):
        self.entry = entry
        self.condition = condition
        super().__init__(message or f"{entry}: violated condition: {condition}")


class UnknownEntryError(GammaTypeError, KeyError):
    """No catalog entry has the requested name."""

    __str__ = BaseException.__str__  # KeyError's would quote the message


class UnrepresentableError(GammaTypeError):
    """The requested distribution has no Gamma-type representation."""


class MomentRangeError(GammaTypeError, ValueError):
    """Requested moment order lies outside the usable range."""


class InversionError(GammaTypeError):
    """Numerical density inversion is unsupported for this form."""
