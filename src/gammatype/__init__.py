"""Exact manipulation and numerical verification of Gamma-type moment forms."""

import importlib

from .errors import (
    GammaTypeError, PoleError, ValidationError, InvalidFormError,
    ParameterError, UnknownEntryError, UnrepresentableError,
    MomentRangeError, InversionError, UndecidedStripError,
)
from .specfun import log_gamma, log_gamma_real, gamma_real
from .forms import (
    GammaTypeForm, GammaFactor, AnalyticityStrip, AsymptoticProfile,
    ConsistencyReport, make_form, moments_equal,
)
from .catalog import (
    DistributionEntry, Support, ParamSpec, build, entry_names, entry_json,
    catalog_to_json, pref_attach_candidate_form,
)
from . import recipes

__version__ = "0.1.0"

# the modules that may load numpy, and their names, load on first access
# (PEP 562)
_LAZY = {
    "stochastics": ("sample", "MCEstimate", "mc_moment",
                    "VerificationReport", "verify_entry", "harmonic_drift"),
    "mellin": ("density", "density_rows", "density_table",
               "check_normalization"),
}


def __getattr__(name):
    for module, names in _LAZY.items():
        if name == module or name in names:
            loaded = importlib.import_module("." + module, __name__)
            return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
