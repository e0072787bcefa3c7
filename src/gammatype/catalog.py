"""Registry of distributions whose moments (or MGF) are of Gamma type.

Each entry ties a named distribution to its exact form, the strip and
growth profile it is expected to have, a seedable sampler recipe where a
factorization into primitive draws is known, and a closed-form density
where one exists.  Most forms are written out factor by factor with
make_form; the recipes follow the factorization into primitive draws, so
Monte Carlo checks each form against an independent construction.

A factory takes only its parameters and states the mathematics; a special
case returns its general law's entry with replace changing what differs.
build checks the ParamSpec conditions, gives the entry its name and coerced
parameters, and names it in every error raised while building.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Integral

from . import recipes as rc
from .errors import (ParameterError, UnknownEntryError, UnrepresentableError,
                     ValidationError, integer, real)
from .forms import GammaFactor, GammaTypeForm, make_form
from .record import Record
from .specfun import exp_or_inf, gamma_real

__all__ = [
    "Support", "ParamSpec", "DistributionEntry",
    "build", "entry_names", "entry_json", "catalog_to_json",
    "pref_attach_candidate_form",
]

_INF = math.inf
_SQRT_2PI = math.sqrt(2.0 * math.pi)

STIRLING_RECIPE_MAX_K = 1000  # its recipe has k leaves; none above this
SELBERG_MAX_N = 10 ** 5  # a Selberg form has O(n) factors; refused above
_SELBERG_N = f"2 <= n <= {SELBERG_MAX_N}"


class Support(Record):
    # the hull of the support
    __slots__ = _fields = ("lo", "hi")


class ParamSpec(Record):
    # kind: "int" or "float"; constraint: an expression build checks, or words
    __slots__ = _fields = ("name", "kind", "constraint")

    def coerce(self, value):
        try:
            if self.kind == "float":
                return real(value, self.name)
            if (not isinstance(value, Integral)
                    and real(value, self.name).is_integer()):
                value = int(value)
            return integer(value, self.name)
        except ValidationError as exc:
            raise ParameterError(None, str(exc) if self.kind == "float" else
                                 f"{self.name} must be an integer") from None


class DistributionEntry(Record):
    # kind is "mellin" (E X^s) or "mgf" (E e^{sX}); symmetric is what the
    # form cannot show (see support); build sets the entry's name and its
    # coerced parameters
    __slots__ = _fields = ("form", "kind", "recipe", "density", "tabulated",
                           "name", "params", "symmetric")
    _defaults = (None, None, {}, "", {}, False)

    @property
    def support(self) -> Support:
        """The hull of the law's support, read from the form (Janson 2010):
        on a side whose strip edge is infinite and where gamma' = 0, log
        F(s) / s tends to kappa, so that end of log X (of X for the MGF
        kind) is kappa; elsewhere the law is unbounded on that side."""
        strip, prof = self.form.strip(), self.form.asymptotic_profile()
        bounded = prof.gamma_prime == 0
        lo = prof.kappa if bounded and strip.rho_minus == -_INF else -_INF
        hi = prof.kappa if bounded and strip.rho_plus == _INF else _INF
        if self.kind == "mellin":
            lo, hi = exp_or_inf(lo), exp_or_inf(hi)
        return Support(-hi, hi) if self.symmetric else Support(lo, hi)

    def replace(self, **changes):
        """A copy with the named fields changed and the others kept."""
        return type(self)(**{**dict(zip(self._fields, self._values(self))),
                             **changes})


class _EntryDef(Record):
    # factory(**params) -> DistributionEntry
    __slots__ = _fields = ("label", "params", "factory")


_REGISTRY: dict[str, _EntryDef] = {}


def _register(name, label, params):
    def wrap(factory):
        _REGISTRY[name] = _EntryDef(label, tuple(params), factory)
        return factory
    return wrap


def _require(ok, condition):
    """ParameterError unless ok; build names the entry."""
    if not ok:
        raise ParameterError(None, condition)


# ----------------------------------------------------------------- primitives

@_register("exponential", "standard exponential", ())
def _exponential():
    return _gamma(1.0).replace(recipe=rc.exponential())


@_register("gamma", "gamma distribution", (ParamSpec("a", "float", "a > 0"),))
def _gamma(a):
    ga = gamma_real(a)
    form = make_form(1.0 / ga, 0, [(1, a)])
    dens = lambda x: x ** (a - 1) * math.exp(-x) / ga if x > 0 else 0.0
    return DistributionEntry(
        form, "mellin", recipe=rc.gamma(a), density=dens,
        tabulated=dict(rho_minus=-a, rho_plus=_INF, gamma=1.0, gamma_prime=1.0,
                       delta=a - 0.5, kappa=0.0, c1=_SQRT_2PI / ga))


@_register("beta", "beta distribution",
           (ParamSpec("a", "float", "a > 0"), ParamSpec("b", "float", "b > 0")))
def _beta(a, b):
    cab = gamma_real(a + b) / gamma_real(a)
    form = make_form(cab, 0, [(1, a)], [(1, a + b)])
    inv_b = gamma_real(a + b) / (gamma_real(a) * gamma_real(b))
    dens = (lambda x: inv_b * x ** (a - 1) * (1 - x) ** (b - 1)
            if 0 < x < 1 else 0.0)
    return DistributionEntry(
        form, "mellin", recipe=rc.beta(a, b), density=dens,
        tabulated=dict(rho_minus=-a, rho_plus=_INF, gamma=0.0, gamma_prime=0.0,
                       delta=-b, kappa=0.0, c1=cab))


@_register("positive_stable", "one-sided stable law, Laplace transform exp(-t^alpha)",
           (ParamSpec("alpha", "float", "0 < alpha < 1"),))
def _positive_stable(alpha):
    dens = None
    if alpha == 0.5:
        dens = (lambda x: 0.5 / math.sqrt(math.pi) * x ** -1.5
                * math.exp(-0.25 / x) if x > 0 else 0.0)
    return _tilted_stable(alpha, 0.0).replace(
        recipe=rc.positive_stable(alpha), density=dens)


# ----------------------------------------------------- chi family and friends

@_register("rayleigh", "Rayleigh distribution (chi with 2 degrees of freedom)", ())
def _rayleigh():
    form = make_form(1, 0.5 * math.log(2), [(Fraction(1, 2), 1)])
    dens = lambda x: x * math.exp(-x * x / 2) if x > 0 else 0.0
    return DistributionEntry(
        form, "mellin",
        recipe=rc.Scale(rc.Power(rc.exponential(), 0.5), math.sqrt(2)),
        density=dens,
        tabulated=dict(rho_minus=-2.0, rho_plus=_INF, gamma=0.5,
                       gamma_prime=0.5, delta=0.5, kappa=0.0,
                       c1=math.sqrt(math.pi)))


@_register("maxwell", "Maxwell distribution (chi with 3 degrees of freedom)", ())
def _maxwell():
    form = make_form(2 / math.sqrt(math.pi), 0.5 * math.log(2),
                     [(Fraction(1, 2), 1.5)])
    dens = (lambda x: math.sqrt(2 / math.pi) * x * x * math.exp(-x * x / 2)
            if x > 0 else 0.0)
    return DistributionEntry(
        form, "mellin", recipe=rc.Power(rc.Scale(rc.gamma(1.5), 2.0), 0.5),
        density=dens,
        tabulated=dict(rho_minus=-3.0, rho_plus=_INF, gamma=0.5,
                       gamma_prime=0.5, delta=1.0, kappa=0.0,
                       c1=math.sqrt(2)))


@_register("type2_beta", "type-2 beta distribution (ratio of independent gammas)",
           (ParamSpec("alpha", "float", "alpha > 0"),
            ParamSpec("beta", "float", "beta > 0")))
def _type2_beta(alpha, beta):
    ga, gb = gamma_real(alpha), gamma_real(beta)
    form = make_form(1.0 / (ga * gb), 0, [(1, alpha), (-1, beta)])
    c = gamma_real(alpha + beta) / (ga * gb)
    dens = (lambda x: c * x ** (alpha - 1) * (1 + x) ** -(alpha + beta)
            if x > 0 else 0.0)
    return DistributionEntry(
        form, "mellin",
        recipe=rc.Product((rc.gamma(alpha), rc.Power(rc.gamma(beta), -1.0))),
        density=dens,
        tabulated=dict(rho_minus=-alpha, rho_plus=beta, gamma=2.0,
                       gamma_prime=0.0, delta=alpha + beta - 1, kappa=0.0,
                       c1=2 * math.pi / (ga * gb)))


def _cauchy_pair(slope, k):
    """pi^-k (Gamma(slope s + 1/2) Gamma(-slope s + 1/2))^k: E|X|^s of a
    product of k standard Cauchy variables at slope 1/2, the MGF of a sum
    of k hyperbolic secant variables at slope 1/pi."""
    pos, neg = GammaFactor(slope, 0.5), GammaFactor(-slope, 0.5)
    # the constant pi^-k, 0 past k = 650, raises before the 2k factors exist
    constant = make_form(math.pi ** -k, 0).constant
    return GammaTypeForm(constant, 0.0, (pos,) * k + (neg,) * k, ())


# |C| of a standard Cauchy C, by E|C|^s = Gamma(s/2 + 1/2) Gamma(-s/2 + 1/2)
# / pi: the square root of a ratio of two independent Gamma(1/2) variables
_HALF_CAUCHY = rc.Power(rc.Product((rc.gamma(0.5),
                                    rc.Power(rc.gamma(0.5), -1.0))), 0.5)


@_register("half_cauchy", "absolute value of a standard Cauchy variable", ())
def _half_cauchy():
    dens = lambda x: 2 / (math.pi * (1 + x * x)) if x > 0 else 0.0
    return _cauchy_product(1).replace(symmetric=False, recipe=_HALF_CAUCHY,
                                      density=dens)


# ------------------------------------------------------- Dufresne beta product

def _dufresne_degenerate(a, b, c, d):
    """Reduced (alpha, beta) when the four-parameter form degenerates."""
    if b == 0:
        return c, d
    if d == 0:
        return a, b
    if a + b == c:
        return a, c + d - a
    if c + d == a:
        return c, a + b - c
    return None


@_register("beta_product", "Dufresne beta-product distribution",
           (ParamSpec("a", "float", "existence condition (i) or (ii)"),
            ParamSpec("b", "float", "existence condition (i) or (ii)"),
            ParamSpec("c", "float", "existence condition (i) or (ii)"),
            ParamSpec("d", "float", "existence condition (i) or (ii)")))
def _beta_product(a, b, c, d):
    reduced = _dufresne_degenerate(a, b, c, d)
    if reduced is not None:
        alpha, beta = reduced
        _require(alpha > 0 and beta >= 0,
                 "(ii): degenerate case needs alpha > 0 and beta >= 0 "
                 f"(got alpha={alpha}, beta={beta})")
        if beta == 0:
            form = make_form(1, 0)
            return DistributionEntry(
                form, "mellin", recipe=rc.Power(rc.uniform(), 0.0),
                density=None,
                tabulated=dict(rho_minus=-_INF, rho_plus=_INF, gamma=0.0,
                               gamma_prime=0.0, delta=0.0, kappa=0.0, c1=1.0))
        return _beta(alpha, beta)
    failures = []
    if not (a > 0 and c > 0):
        failures.append("a > 0 and c > 0")
    if not b + d > 0:
        failures.append("b + d > 0")
    if not min(a + b, c + d) > min(a, c):
        failures.append("min(a+b, c+d) > min(a, c)")
    _require(not failures, "(i): " + "; ".join(failures)
             + " [not degenerate, so (ii) does not apply]")
    const = (gamma_real(a + b) * gamma_real(c + d)
             / (gamma_real(a) * gamma_real(c)))
    form = make_form(const, 0, [(1, a), (1, c)], [(1, a + b), (1, c + d)])
    recipe = None
    if b > 0 and d > 0:
        recipe = rc.Product((rc.beta(a, b), rc.beta(c, d)))
    return DistributionEntry(
        form, "mellin", recipe=recipe, density=None,
        tabulated=dict(rho_minus=-min(a, c), rho_plus=_INF, gamma=0.0,
                       gamma_prime=0.0, delta=-b - d, kappa=0.0, c1=const))


# -------------------------------------------------------------- ISE examples

@_register("ise_density_zero",
           "density of the integrated superbrownian excursion at the origin", ())
def _ise_density_zero():
    form = make_form(1, 0.25 * math.log(2) - math.log(3),
                     [(Fraction(3, 4), 1)], [(Fraction(1, 2), 1)])
    recipe = rc.Scale(rc.Power(rc.positive_stable(2 / 3), -0.5),
                      2 ** 0.25 / 3)
    return DistributionEntry(
        form, "mellin", recipe=recipe,
        tabulated=dict(rho_minus=-4 / 3, rho_plus=_INF, gamma=0.25,
                       gamma_prime=0.25, delta=0.0,
                       kappa=-0.75 * math.log(2) - 0.25 * math.log(3),
                       c1=math.sqrt(1.5)))


@_register("average_ise",
           "random point of the averaged integrated superbrownian excursion", ())
def _average_ise():
    form = make_form(1 / math.sqrt(math.pi), 0.75 * math.log(2),
                     [(Fraction(1, 2), 0.5), (Fraction(1, 4), 1)])
    # two-factor representation implied by the Gamma product; validated by MC
    recipe = rc.Scale(rc.Product((rc.Power(rc.gamma(0.5), 0.5),
                                  rc.Power(rc.exponential(), 0.25))),
                      2 ** 0.75)
    return DistributionEntry(
        form, "mellin", recipe=recipe,
        tabulated=dict(rho_minus=-1.0, rho_plus=_INF, gamma=0.75,
                       gamma_prime=0.75, delta=0.5,
                       kappa=-0.25 * math.log(2), c1=math.sqrt(math.pi)),
        symmetric=True)


# ------------------------------------------------------- combinatorial limits

@_register("stirling_blocks",
           "limit law of the number of blocks in a random k-Stirling permutation",
           (ParamSpec("k", "int", "k >= 2"),))
def _stirling_blocks(k):
    c = gamma_real((k + 1) / k)
    form = make_form(c, 0, [(1, 2)], [(Fraction(1, k), (k + 1) / k)])
    # splitting Gamma(s+2) into k pieces cancels the denominator, leaving
    # k prod_{i<k-1} G_{(i+2)/k}^(1/k).  Such shapes draw exact zeros, so
    # G_a = G_{a+1} U^(1/a) lifts each above 1; the U powers give B(2, k-1)
    recipe = None
    if k <= STIRLING_RECIPE_MAX_K:
        gammas = tuple(rc.Power(rc.gamma(1 + (i + 2) / k), 1.0 / k)
                       for i in range(k - 1))
        recipe = rc.Scale(rc.Product((rc.beta(2, k - 1),) + gammas),
                          float(k))
    return DistributionEntry(
        form, "mellin", recipe=recipe,
        tabulated=dict(rho_minus=-2.0, rho_plus=_INF, gamma=(k - 1) / k,
                       gamma_prime=(k - 1) / k, delta=(k - 1) / k,
                       kappa=math.log(k) / k,
                       c1=k ** ((k + 2) / (2 * k)) * c))


@_register("ball_distance",
           "distance between two uniform random points in an n-ball of radius a",
           (ParamSpec("n", "int", "n >= 1"), ParamSpec("a", "float", "a > 0")))
def _ball_distance(n, a):
    c = n * gamma_real(n + 1) / gamma_real((n + 1) / 2)
    form = make_form(c, math.log(2 * a),
                     [(1, n), (Fraction(1, 2), (n + 1) / 2)],
                     [(1, n + 1), (Fraction(1, 2), n + 1)])
    recipe = rc.Scale(rc.Product((rc.beta(n, 1),
                                  rc.Power(rc.beta((n + 1) / 2, (n + 1) / 2),
                                           0.5))), 2 * a)
    hammersley_c = 2 * n * gamma_real(n + 1) / gamma_real((n + 1) / 2) ** 2
    half_beta = (0.5 * gamma_real(0.5) * gamma_real((n + 1) / 2)
                 / gamma_real(n / 2 + 1))

    def dens(x, _c=hammersley_c, _n=n, _a=a):
        from scipy.special import betainc
        lam = x / (2 * _a)
        if not 0 < lam < 1:
            return 0.0
        # int_lam^1 (1 - z^2)^((n-1)/2) dz, substituting w = 1 - z^2
        tail = half_beta * betainc((_n + 1) / 2, 0.5, (1 - lam) * (1 + lam))
        return _c * lam ** (_n - 1) * tail / (2 * _a)

    return DistributionEntry(
        form, "mellin", recipe=recipe, density=dens,
        tabulated=dict(rho_minus=float(-n), rho_plus=_INF, gamma=0.0,
                       gamma_prime=0.0, delta=-(n + 3) / 2,
                       kappa=math.log(2 * a), c1=2 ** ((n + 1) / 2) * c))


def pref_attach_candidate_form(alpha: float) -> GammaTypeForm:
    """The candidate moment function of the preferential-attachment limit.

    Defined for any alpha > 0 (not a nonpositive integer); only
    alpha >= 1/2 yields a genuine distribution, which is exactly what the
    zero-free-strip check detects.
    """
    return make_form(gamma_real(alpha), 0, [(1, 1)], [(Fraction(1, 2), alpha)])


@_register("pref_attach",
           "normalized vertex-degree limit of a preferential attachment graph",
           (ParamSpec("alpha", "float", "alpha >= 1/2"),))
def _pref_attach(alpha):
    form = pref_attach_candidate_form(alpha).scale(math.sqrt(alpha / 2))
    # split Gamma(s+1) in half; the half-integer piece pairs with the
    # denominator into a beta factor when alpha >= 1/2
    if alpha == 0.5:
        recipe = rc.Power(rc.exponential(), 0.5)
    else:
        recipe = rc.Scale(rc.Power(rc.Product((rc.beta(0.5, alpha - 0.5),
                                               rc.exponential())), 0.5),
                          math.sqrt(2 * alpha))
    dens = None
    if alpha == 0.5:
        dens = lambda x: 2 * x * math.exp(-x * x) if x > 0 else 0.0
    return DistributionEntry(
        form, "mellin", recipe=recipe, density=dens,
        tabulated=dict(rho_minus=-2.0 if alpha == 0.5 else -1.0,
                       rho_plus=_INF, gamma=0.5, gamma_prime=0.5,
                       delta=1 - alpha, kappa=0.5 * math.log(alpha),
                       c1=2 ** (alpha - 0.5) * gamma_real(alpha)))


# ----------------------------------------------- exponential order statistics

@_register("max_exp", "maximum of n iid standard exponentials (MGF kind)",
           (ParamSpec("n", "int", "n >= 1"),))
def _max_exp(n):
    return _mth_max_exp(n, 1)


@_register("mth_max_exp", "m-th largest of n iid standard exponentials (MGF kind)",
           (ParamSpec("n", "int", "n >= 1"),
            ParamSpec("m", "int", "1 <= m <= n")))
def _mth_max_exp(n, m):
    form = make_form(gamma_real(n + 1) / gamma_real(m), 0,
                     [(-1, m)], [(-1, n + 1)])
    recipe = rc.Sum(tuple(rc.Scale(rc.exponential(), 1.0 / j)
                          for j in range(m, n + 1)))
    binom = n * math.comb(n - 1, m - 1)  # exact; the form keeps n <= 170
    dens = (lambda x: binom * math.exp(-m * x) * (1 - math.exp(-x)) ** (n - m)
            if x > 0 else 0.0)
    return DistributionEntry(
        form, "mgf", recipe=recipe, density=dens,
        tabulated=dict(rho_minus=-_INF, rho_plus=float(m), gamma=0.0,
                       gamma_prime=0.0, delta=-(n - m + 1.0), kappa=0.0,
                       c1=gamma_real(n + 1) / gamma_real(m)))


@_register("gumbel", "Gumbel distribution (MGF kind)", ())
def _gumbel():
    return _mth_gumbel(1).replace(recipe=rc.gumbel())


@_register("mth_gumbel",
           "limit law of the m-th largest exponential, centered (MGF kind)",
           (ParamSpec("m", "int", "m >= 1"),))
def _mth_gumbel(m):
    gm = gamma_real(m)
    form = make_form(1.0 / gm, 0, [(-1, m)])
    dens = lambda x: math.exp(-m * x - exp_or_inf(-x)) / gm
    return DistributionEntry(
        form, "mgf", recipe=rc.NegLog(rc.gamma(float(m))), density=dens,
        tabulated=dict(rho_minus=-_INF, rho_plus=float(m), gamma=1.0,
                       gamma_prime=-1.0, delta=m - 0.5, kappa=0.0,
                       c1=_SQRT_2PI / gm))


@_register("logistic", "logistic distribution (MGF kind)", ())
def _logistic():
    form = make_form(1, 0, [(-1, 1), (1, 1)])
    dens = lambda x: math.exp(-abs(x)) / (1 + math.exp(-abs(x))) ** 2
    recipe = rc.Sum((rc.gumbel(), rc.Scale(rc.gumbel(), -1.0)))
    return DistributionEntry(
        form, "mgf", recipe=recipe, density=dens,
        tabulated=dict(rho_minus=-1.0, rho_plus=1.0, gamma=2.0,
                       gamma_prime=0.0, delta=1.0, kappa=0.0,
                       c1=2 * math.pi))


# ------------------------------------------------------------ Selberg moments

def _selberg_beta_form(n, alpha, beta):
    num, den = [], []
    const = (gamma_real(alpha + beta)
             / (gamma_real(alpha) * gamma_real(beta))) ** n
    const *= gamma_real(alpha) * gamma_real(beta)  # j=1 constant factors
    for j in range(1, n + 1):
        if j >= 2:
            num.append((j - 1, alpha))
            num.append((j - 1, beta))
        num.append((j, 1))
        den.append((n + j - 2, alpha + beta))
        den.append((1, 1))
    return make_form(const, 0, num, den)


@_register("selberg_beta",
           "squared Vandermonde discriminant of n iid beta variables",
           (ParamSpec("n", "int", _SELBERG_N),
            ParamSpec("alpha", "float", "alpha > 0"),
            ParamSpec("beta", "float", "beta > 0")))
def _selberg_beta(n, alpha, beta):
    form = _selberg_beta_form(n, alpha, beta)
    rho = max(-1.0 / n, -alpha / (n - 1), -beta / (n - 1))
    return DistributionEntry(
        form, "mellin", recipe=rc.Discriminant(n, rc.beta(alpha, beta)),
        tabulated=dict(rho_minus=rho, rho_plus=_INF, gamma=0.0,
                       gamma_prime=0.0, delta=1 - alpha - beta - n / 2))


@_register("selberg_gamma",
           "squared Vandermonde discriminant of n iid gamma variables",
           (ParamSpec("n", "int", _SELBERG_N),
            ParamSpec("alpha", "float", "alpha > 0")))
def _selberg_gamma(n, alpha):
    num, den = [], []
    for j in range(2, n + 1):
        num.append((j - 1, alpha))
        num.append((j, 1))
        den.append((1, 1))
    form = make_form(gamma_real(alpha) ** (1 - n), 0, num, den)
    rho = max(-1.0 / n, -alpha / (n - 1))
    return DistributionEntry(
        form, "mellin", recipe=rc.Discriminant(n, rc.gamma(alpha)),
        tabulated=dict(rho_minus=rho, rho_plus=_INF,
                       gamma=float(n * n - n), gamma_prime=float(n * n - n),
                       delta=(n - 1) * (alpha - 0.5)))


@_register("selberg_normal",
           "squared Vandermonde discriminant of n iid standard normals",
           (ParamSpec("n", "int", _SELBERG_N),))
def _selberg_normal(n):
    num = [(j, 1) for j in range(2, n + 1)]
    den = [(1, 1)] * (n - 1)
    form = make_form(1, 0, num, den)
    kappa = sum(j * math.log(j) for j in range(2, n + 1))
    return DistributionEntry(
        form, "mellin", recipe=rc.Discriminant(n, rc.normal()),
        tabulated=dict(rho_minus=-1.0 / n, rho_plus=_INF,
                       gamma=n * (n - 1) / 2.0, gamma_prime=n * (n - 1) / 2.0,
                       delta=0.0, kappa=kappa,
                       c1=math.sqrt(gamma_real(n + 1))))


# --------------------------------------------------------- stable-law circle

def _symmetric_stable_form(alpha):
    return make_form(1 / math.sqrt(math.pi), math.log(2),
                     [(Fraction(1, 2), 0.5), (-1 / alpha, 1)],
                     [(Fraction(-1, 2), 1)])


@_register("symmetric_stable",
           "symmetric stable law, characteristic function exp(-|t|^alpha)",
           (ParamSpec("alpha", "float", "0 < alpha <= 2"),))
def _symmetric_stable(alpha):
    form = _symmetric_stable_form(alpha)
    dens = None
    if alpha == 2.0:
        dens = lambda x: math.exp(-x * x / 4) / (2 * math.sqrt(math.pi))
    elif alpha == 1.0:
        dens = lambda x: 1 / (math.pi * (1 + x * x))
    return DistributionEntry(
        form, "mellin",
        recipe=rc.Abs(rc.symmetric_stable(alpha)), density=dens,
        tabulated=dict(rho_minus=-1.0,
                       rho_plus=_INF if alpha == 2.0 else alpha,
                       gamma=1 / alpha, gamma_prime=1 - 1 / alpha, delta=0.0,
                       kappa=math.log(alpha) / alpha,
                       c1=math.sqrt(4 / alpha)),
        symmetric=True)


def _cauchy_product_density_2(x):
    # 2 log|x| / (pi^2 (x^2 - 1)), removable singularity at |x| = 1, where
    # ax - 1 is exact (Sterbenz) and x^2 - 1 would cancel; divided step by
    # step, so no product overflows before the quotient does
    ax = abs(x)
    if ax == 0.0:
        return math.inf
    if ax == 1.0:
        return 1 / math.pi ** 2
    return 2 * math.log(ax) / (ax - 1) / (ax + 1) / math.pi ** 2


@_register("cauchy_product", "product of k independent standard Cauchy variables",
           (ParamSpec("k", "int", "k >= 1"),))
def _cauchy_product(k):
    dens = None
    if k == 1:
        dens = lambda x: 1 / (math.pi * (1 + x * x))
    elif k == 2:
        dens = _cauchy_product_density_2
    return DistributionEntry(
        _cauchy_pair(Fraction(1, 2), k), "mellin",
        recipe=rc.Product((_HALF_CAUCHY,) * k), density=dens,
        tabulated=dict(rho_minus=-1.0, rho_plus=1.0, gamma=float(k),
                       gamma_prime=0.0, delta=0.0, kappa=0.0, c1=2.0 ** k),
        symmetric=True)


def _sech_density_2(x):
    ax = abs(x)
    if ax < 1e-8:
        return 1 / math.pi  # limit of x / (2 sinh(pi x / 2))
    # x / (2 sinh(pi x / 2)) written overflow-safely for large |x|, and
    # without cancellation for small |x|
    return ax * math.exp(-math.pi * ax / 2) / -math.expm1(-math.pi * ax)


@_register("hyperbolic_secant",
           "generalized hyperbolic secant law at integer time t (MGF kind)",
           (ParamSpec("t", "float", "positive integer"),))
def _hyperbolic_secant(t):
    _require(t > 0, "positive integer")
    if not float(t).is_integer():
        raise UnrepresentableError(
            "the characteristic function cosh^-t has no meromorphic "
            f"extension for non-integer t = {t}")
    k = int(t)
    dens = None
    if k == 1:
        dens = lambda x: math.exp(-math.pi * abs(x) / 2) / (
            1 + math.exp(-math.pi * abs(x)))
    elif k == 2:
        dens = _sech_density_2
    one_term = rc.Scale(rc.NegLog(_HALF_CAUCHY), -2 / math.pi)
    return DistributionEntry(
        _cauchy_pair(1 / math.pi, k), "mgf",
        recipe=rc.Sum((one_term,) * k), density=dens,
        tabulated=dict(rho_minus=-math.pi / 2, rho_plus=math.pi / 2,
                       gamma=2 * k / math.pi, gamma_prime=0.0, delta=0.0,
                       kappa=0.0, c1=2.0 ** k))


# --------------------------------------------------------- Lamperti variables

@_register("lamperti", "ratio of two independent one-sided stable variables",
           (ParamSpec("alpha", "float", "0 < alpha < 1"),))
def _lamperti(alpha):
    return _kotz_ostrovskii(alpha, 1.0)


@_register("lamperti_power", "Lamperti ratio raised to its own index",
           (ParamSpec("alpha", "float", "0 < alpha < 1"),))
def _lamperti_power(alpha):
    form = make_form(1, 0, [(1, 1), (-1, 1)], [(alpha, 1), (-alpha, 1)])
    sin_a, cos_a = math.sin(math.pi * alpha), math.cos(math.pi * alpha)
    dens = (lambda x: sin_a / (math.pi * alpha)
            / (x * x + 2 * cos_a * x + 1) if x > 0 else 0.0)
    recipe = rc.Power(rc.Product((rc.positive_stable(alpha),
                                  rc.Power(rc.positive_stable(alpha), -1.0))),
                      alpha)
    return DistributionEntry(
        form, "mellin", recipe=recipe, density=dens,
        tabulated=dict(rho_minus=-1.0, rho_plus=1.0, gamma=2 - 2 * alpha,
                       gamma_prime=0.0, delta=0.0, kappa=0.0, c1=1 / alpha))


@_register("kotz_ostrovskii", "Kotz-Ostrovskii stable-ratio power variable",
           (ParamSpec("alpha", "float", "0 < alpha < beta"),
            ParamSpec("beta", "float", "alpha < beta <= 2")))
def _kotz_ostrovskii(alpha, beta):
    form = make_form(1, 0, [(1 / alpha, 1), (-1 / alpha, 1)],
                     [(1 / beta, 1), (-1 / beta, 1)])
    g = alpha / beta
    sin_g, cos_g = math.sin(math.pi * g), math.cos(math.pi * g)
    dens = (lambda x: beta * sin_g / math.pi * x ** (alpha - 1)
            / (x ** (2 * alpha) + 2 * cos_g * x ** alpha + 1)
            if x > 0 else 0.0)
    recipe = rc.Power(rc.Product((rc.positive_stable(g),
                                  rc.Power(rc.positive_stable(g), -1.0))),
                      1.0 / beta)
    return DistributionEntry(
        form, "mellin", recipe=recipe, density=dens,
        tabulated=dict(rho_minus=-alpha, rho_plus=alpha,
                       gamma=2 / alpha - 2 / beta, gamma_prime=0.0, delta=0.0,
                       kappa=0.0, c1=beta / alpha))


@_register("tilted_stable", "one-sided stable law tilted by x^-theta (moments only)",
           (ParamSpec("alpha", "float", "0 < alpha < 1"),
            ParamSpec("theta", "float", "theta > -alpha")))
def _tilted_stable(alpha, theta):
    const = gamma_real(1 + theta) / gamma_real(1 + theta / alpha)
    form = make_form(const, 0, [(-1 / alpha, (alpha + theta) / alpha)],
                     [(-1, 1 + theta)])
    return DistributionEntry(
        form, "mellin", tabulated=dict(rho_minus=-_INF, rho_plus=alpha + theta,
                       gamma=1 / alpha - 1, gamma_prime=1 - 1 / alpha,
                       delta=theta / alpha - theta,
                       kappa=math.log(alpha) / alpha,
                       c1=const * alpha ** -(theta / alpha + 0.5)))


@_register("gen_exponential", "generalized exponential law with density ~ exp(-x^beta)",
           (ParamSpec("beta", "float", "beta > 0"),))
def _gen_exponential(beta):
    form = make_form(1, 0, [(1 / beta, 1 / beta)])  # 1/beta = 0 raises here
    gb = gamma_real(1 / beta)
    form = GammaTypeForm(1.0 / gb, form.log_scale, form.num, form.den)
    norm = 1.0 / gamma_real(1 + 1 / beta)
    dens = lambda x: norm * math.exp(-x ** beta) if x > 0 else 0.0
    return DistributionEntry(
        form, "mellin",
        recipe=rc.Power(rc.gamma(1 / beta), 1.0 / beta), density=dens,
        tabulated=dict(rho_minus=-1.0, rho_plus=_INF, gamma=1 / beta,
                       gamma_prime=1 / beta, delta=1 / beta - 0.5,
                       kappa=-math.log(beta) / beta,
                       c1=_SQRT_2PI * beta ** (0.5 - 1 / beta) / gb))


@_register("linnik", "Linnik distribution, characteristic function 1/(1+|t|^alpha)",
           (ParamSpec("alpha", "float", "0 < alpha <= 2"),))
def _linnik(alpha):
    form = make_form(1 / math.sqrt(math.pi), math.log(2),
                     [(Fraction(1, 2), 0.5), (1 / alpha, 1), (-1 / alpha, 1)],
                     [(Fraction(-1, 2), 1)])
    dens = None
    if alpha == 2.0:
        dens = lambda x: 0.5 * math.exp(-abs(x))
    recipe = rc.Product((rc.Abs(rc.symmetric_stable(alpha)),
                         rc.Power(rc.exponential(), 1.0 / alpha)))
    return DistributionEntry(
        form, "mellin", recipe=recipe, density=dens,
        tabulated=dict(rho_minus=-min(alpha, 1.0),
                       rho_plus=_INF if alpha == 2.0 else alpha,
                       gamma=2 / alpha, gamma_prime=1.0, delta=0.5, kappa=0.0,
                       c1=2 * _SQRT_2PI / alpha),
        symmetric=True)


# ------------------------------------------------------------------ front end

def entry_names() -> list[str]:
    return list(_REGISTRY)


def _definition(name: str) -> _EntryDef:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownEntryError(f"unknown distribution {name!r}") from None


def build(name: str, params: dict | None = None) -> DistributionEntry:
    """Construct a catalog entry, validating the parameter constraints.

    The entry's params are the coerced values, in ParamSpec order; the first
    constraint false of them is the ParameterError's condition.
    UnknownEntryError if no entry has the name.
    """
    d = _definition(name)
    params = dict(params or {})
    expected = {p.name for p in d.params}
    unknown = set(params) - expected
    if unknown:
        raise ParameterError(name, f"unknown parameter(s) {sorted(unknown)}; "
                                   f"expected {sorted(expected)}")
    missing = expected - set(params)
    if missing:
        raise ParameterError(name, f"missing parameter(s) {sorted(missing)}")
    try:
        kwargs = {p.name: p.coerce(params[p.name]) for p in d.params}
        for p in d.params:  # a condition in words is its factory's to check
            try:
                holds = eval(p.constraint, {"__builtins__": {}}, kwargs)
            except SyntaxError:
                holds = True
            if not holds:
                raise ParameterError(None, p.constraint)
        entry = d.factory(**kwargs)
    except ParameterError as exc:
        raise ParameterError(name, exc.condition) from None
    except UnrepresentableError as exc:
        raise UnrepresentableError(f"{name}: {exc}") from None
    except (ValidationError, OverflowError) as exc:
        # the parameters passed their conditions, so the form's constant,
        # offsets or slopes left float64: an out-of-range parameter, not a
        # bad form
        raise ParameterError(name, "parameters outside the representable "
                                   f"range ({exc})") from None
    return entry.replace(name=name, params=kwargs)


def entry_json(name: str) -> dict:
    """Name, label and parameter schema of one entry."""
    d = _definition(name)
    return {"name": name, "label": d.label,
            "params": [{k: getattr(p, k) for k in p._fields}
                       for p in d.params]}


def catalog_to_json() -> list[dict]:
    """entry_json of every entry, in registry order."""
    return [entry_json(name) for name in _REGISTRY]
