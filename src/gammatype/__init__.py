"""Exact manipulation and numerical verification of Gamma-type moment forms."""

from .errors import (
    GammaTypeError, PoleError, ValidationError, InvalidFormError,
    EmptyStripError, ParameterError, UnrepresentableError,
    MomentRangeError, InversionError,
)
from .specfun import log_gamma, log_gamma_real, gamma_real
from .forms import (
    GammaTypeForm, GammaFactor, AnalyticityStrip, AsymptoticProfile,
    ConsistencyReport, make_form, moments_equal,
)
from .catalog import (
    DistributionEntry, Support, ParamSpec, build, entry_names,
    density_closed_form, catalog_to_json, pref_attach_candidate_form,
)
from . import recipes
from .stochastics import (
    sample, save_samples, MCEstimate, mc_moment,
    VerificationReport, verify_entry, harmonic_drift,
)
from .mellin import (
    InversionSpec, density, density_table, check_normalization,
    save_density_table,
)

__version__ = "0.1.0"
