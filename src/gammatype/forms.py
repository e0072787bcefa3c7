"""Exact Gamma-type forms and their algebra.

A form is the meromorphic function

    F(s) = C * exp(l*s) * prod_j Gamma(a_j s + b_j) / prod_k Gamma(c_k s + d_k)

with C > 0, real l, exact rational slopes and real offsets.  Forms are
immutable values; every operation returns a new form.  Pole bookkeeping
(strips, zeros, cancellation) is done on the exact slope rationals so the
arithmetic progressions of poles are resolved without float drift.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    EmptyStripError,
    InvalidFormError,
    PoleError,
    ValidationError,
)
from .specfun import OVERFLOW_EXPONENT, log_gamma

__all__ = [
    "GammaFactor",
    "GammaTypeForm",
    "AnalyticityStrip",
    "AsymptoticProfile",
    "ConsistencyReport",
    "make_form",
    "moments_equal",
]

# absolute tolerance for comparing factor offsets and pole locations
OFFSET_TOL = 1e-12

# outward pole scan is abandoned beyond this and the strip side reported
# as unbounded
POLE_SCAN_LIMIT = 1.0e4

_TWO_PI = 2.0 * math.pi


def _as_slope(a) -> Fraction:
    """Coerce a slope to an exact Fraction.

    Floats are converted exactly (they are binary rationals); pass a
    Fraction for slopes like 1/3 that have no exact float.
    """
    if isinstance(a, Fraction):
        return a
    if isinstance(a, int):
        return Fraction(a)
    if isinstance(a, float):
        if not math.isfinite(a):
            raise ValidationError(f"slope must be finite, got {a!r}")
        return Fraction(a)
    raise ValidationError(f"cannot interpret {a!r} as an exact slope")


@dataclass(frozen=True)
class GammaFactor:
    """One factor Gamma(slope * s + offset)."""

    slope: Fraction
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "slope", _as_slope(self.slope))
        object.__setattr__(self, "offset", float(self.offset))
        if self.slope == 0:
            raise ValidationError("factor slope must be nonzero")
        if not math.isfinite(self.offset):
            raise ValidationError("factor offset must be finite")

    def argument(self, s: complex) -> complex:
        return float(self.slope) * s + self.offset

    def poles(self, lo: float, hi: float) -> Iterable[float]:
        """Pole locations s = (-n - offset) / slope inside [lo, hi]."""
        a = float(self.slope)
        n = 0
        while True:
            s = (-n - self.offset) / a
            if s < lo - OFFSET_TOL or s > hi + OFFSET_TOL:
                # progression is monotone in n; once out on the far side, stop
                if (a > 0 and s < lo) or (a < 0 and s > hi):
                    return
            else:
                yield s
            n += 1
            if n > int(POLE_SCAN_LIMIT * abs(a) + abs(self.offset)) + 4:
                return

    def sort_key(self):
        return (self.slope, self.offset)


@dataclass(frozen=True)
class AnalyticityStrip:
    """Open interval (rho_minus, rho_plus) of analyticity around 0."""

    rho_minus: float
    rho_plus: float

    def contains(self, x: float, margin: float = 0.0) -> bool:
        return self.rho_minus + margin < x < self.rho_plus - margin

    def intersect(self, other: "AnalyticityStrip") -> "AnalyticityStrip":
        lo = max(self.rho_minus, other.rho_minus)
        hi = min(self.rho_plus, other.rho_plus)
        if not lo < hi:
            raise EmptyStripError(f"strips ({self}) and ({other}) do not overlap")
        return AnalyticityStrip(lo, hi)


@dataclass(frozen=True)
class AsymptoticProfile:
    """Growth parameters of log F(s): gamma' s log s + kappa s + delta log s + log c1.

    ``gamma`` governs the exponential decay exp(-pi gamma |t| / 2) along
    vertical lines.
    """

    gamma: float
    gamma_prime: float
    delta: float
    kappa: float
    c1: float


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of the zero-free-strip check."""

    passed: bool
    strip: AnalyticityStrip
    zero_location: float | None = None


def _merge_locations(raw: list[tuple[float, int]]) -> list[tuple[float, int]]:
    """Sum multiplicities of locations that coincide within OFFSET_TOL."""
    raw.sort()
    merged: list[tuple[float, int]] = []
    for loc, mult in raw:
        if merged and abs(loc - merged[-1][0]) <= OFFSET_TOL * max(1.0, abs(loc)):
            merged[-1] = (merged[-1][0], merged[-1][1] + mult)
        else:
            merged.append((loc, mult))
    return [(loc, m) for loc, m in merged if m != 0]


@dataclass(frozen=True)
class GammaTypeForm:
    constant: float
    log_scale: float
    num: tuple[GammaFactor, ...]
    den: tuple[GammaFactor, ...]

    def __post_init__(self):
        if not (isinstance(self.constant, (int, float)) and self.constant > 0
                and math.isfinite(self.constant)):
            raise ValidationError(f"constant must be a positive real, got {self.constant!r}")
        if not math.isfinite(self.log_scale):
            raise ValidationError("log_scale must be finite")
        object.__setattr__(self, "num", tuple(self.num))
        object.__setattr__(self, "den", tuple(self.den))

    # ---------------------------------------------------------------- algebra

    def product(self, other: "GammaTypeForm") -> "GammaTypeForm":
        """Form of the product of independent variables: pointwise F*G."""
        return GammaTypeForm(
            self.constant * other.constant,
            self.log_scale + other.log_scale,
            self.num + other.num,
            self.den + other.den,
        )

    __mul__ = product

    def power(self, r) -> "GammaTypeForm":
        """Moments of X^r: the reparametrization s -> r*s."""
        r = _as_slope(r)
        if r == 0:
            raise ValidationError("power exponent must be nonzero")
        rf = float(r)
        return GammaTypeForm(
            self.constant,
            self.log_scale * rf,
            tuple(GammaFactor(f.slope * r, f.offset) for f in self.num),
            tuple(GammaFactor(f.slope * r, f.offset) for f in self.den),
        )

    def scale(self, c: float) -> "GammaTypeForm":
        """Moments of c*X for c > 0: multiply by c^s."""
        if not c > 0:
            raise ValidationError(f"scale factor must be positive, got {c!r}")
        return GammaTypeForm(self.constant, self.log_scale + math.log(c),
                             self.num, self.den)

    def reciprocal(self) -> "GammaTypeForm":
        return self.power(-1)

    def reflect(self) -> "GammaTypeForm":
        """F(-s); for an MGF this is the moment function of -X."""
        return GammaTypeForm(
            self.constant, -self.log_scale,
            tuple(GammaFactor(-f.slope, f.offset) for f in self.num),
            tuple(GammaFactor(-f.slope, f.offset) for f in self.den),
        )

    def expand_multiplication(self, index: int, m: int,
                              side: str = "num") -> "GammaTypeForm":
        """Rewrite one factor via the Gauss multiplication formula.

        Gamma(a s + b) = (2 pi)^((1-m)/2) m^(a s + b - 1/2)
                         prod_{i=0..m-1} Gamma((a/m) s + (b+i)/m)

        The result is a different representation of the same function.
        """
        if side not in ("num", "den"):
            raise ValidationError("side must be 'num' or 'den'")
        if not (isinstance(m, int) and m >= 2):
            raise ValidationError("multiplication order m must be an integer >= 2")
        factors = self.num if side == "num" else self.den
        if not 0 <= index < len(factors):
            raise ValidationError(f"no {side} factor with index {index}")
        f = factors[index]
        pieces = tuple(
            GammaFactor(f.slope / m, (f.offset + i) / m) for i in range(m)
        )
        log_pref = (0.5 * (1 - m) * math.log(_TWO_PI)
                    + (f.offset - 0.5) * math.log(m))
        slope_pref = float(f.slope) * math.log(m)
        rest = factors[:index] + factors[index + 1:]
        if side == "num":
            return GammaTypeForm(self.constant * math.exp(log_pref),
                                 self.log_scale + slope_pref,
                                 rest + pieces, self.den)
        return GammaTypeForm(self.constant * math.exp(-log_pref),
                             self.log_scale - slope_pref,
                             self.num, rest + pieces)

    # ------------------------------------------------------------- evaluation

    def evaluate_log(self, s: complex) -> complex:
        """log F(s) as the log-space sum (principal branch per factor).

        Raises PoleError at numerator poles; returns -inf (as a real part)
        at denominator poles, where F is exactly zero.
        """
        s = complex(s)
        total = complex(math.log(self.constant) + self.log_scale * s.real,
                        self.log_scale * s.imag)
        for f in self.num:
            w = f.argument(s)
            try:
                total += log_gamma(w)
            except PoleError:
                raise PoleError(s, f"numerator factor Gamma({f.slope}*s + {f.offset}) "
                                   f"has a pole at s = {s}")
        for f in self.den:
            w = f.argument(s)
            try:
                total -= log_gamma(w)
            except PoleError:
                return complex(-math.inf, 0.0)
        return total

    def evaluate(self, s: complex) -> complex:
        logv = self.evaluate_log(s)
        if logv.real == -math.inf:
            return 0.0 + 0.0j
        if logv.real > OVERFLOW_EXPONENT:
            return cmath.rect(math.inf, logv.imag)
        return cmath.exp(logv)

    # ------------------------------------------------------ poles and profile

    def _net_factors(self):
        """num and den with the factors common to both cancelled."""
        num, den = Counter(self.num), Counter(self.den)
        return tuple((num - den).elements()), tuple((den - num).elements())

    def _net_locations(self, lo: float, hi: float,
                       sign: int) -> list[tuple[float, int]]:
        """Net pole (+1) or zero (-1) locations in [lo, hi].

        ``sign=+1`` counts numerator poles net of denominator cancellation,
        ``sign=-1`` the reverse (i.e. zeros of F).
        """
        num, den = self._net_factors()
        raw: list[tuple[float, int]] = []
        for f in num:
            raw.extend((loc, sign) for loc in f.poles(lo, hi))
        for f in den:
            raw.extend((loc, -sign) for loc in f.poles(lo, hi))
        return [(loc, m) for loc, m in _merge_locations(raw) if m > 0]

    def _side_bound(self, direction: int) -> float:
        """Upper bound on |pole location| in one direction, inf if unbounded."""
        bound = 0.0
        for f in self._net_factors()[0]:
            a = float(f.slope)
            first = -f.offset / a
            if direction > 0:
                if a < 0:
                    return math.inf
                bound = max(bound, first)
            else:
                if a > 0:
                    return math.inf
                bound = max(bound, -first)
        return bound

    def strip(self) -> AnalyticityStrip:
        """Maximal open strip around 0 free of net numerator poles.

        Raises InvalidFormError if a net pole sits at s = 0 (such a form
        cannot be the moment function of a positive variable).
        """
        window = 16.0
        rho_minus = -math.inf
        rho_plus = math.inf
        found_minus = found_plus = False
        while True:
            poles = self._net_locations(-window, window, +1)
            for loc, _ in poles:
                if abs(loc) <= OFFSET_TOL:
                    raise InvalidFormError(f"net Gamma pole at s = 0 (location {loc})")
            below = [loc for loc, _ in poles if loc < 0]
            above = [loc for loc, _ in poles if loc > 0]
            if below:
                rho_minus, found_minus = max(below), True
            elif self._side_bound(-1) < window:
                found_minus = True  # provably no pole below 0
            if above:
                rho_plus, found_plus = min(above), True
            elif self._side_bound(+1) < window:
                found_plus = True
            if (found_minus and found_plus) or window >= POLE_SCAN_LIMIT:
                return AnalyticityStrip(rho_minus, rho_plus)
            window *= 4.0

    def check_positive_consistency(self) -> ConsistencyReport:
        """Locate zeros of F inside the open strip of analyticity.

        A moment function of a positive variable cannot vanish inside its
        strip, so any such zero marks an inconsistent form.
        """
        strip = self.strip()
        lo = max(strip.rho_minus, -POLE_SCAN_LIMIT)
        hi = min(strip.rho_plus, POLE_SCAN_LIMIT)
        zeros = [
            (loc, m) for loc, m in self._net_locations(lo, hi, -1)
            if strip.rho_minus + OFFSET_TOL < loc < strip.rho_plus - OFFSET_TOL
        ]
        if not zeros:
            return ConsistencyReport(True, strip)
        first = min(zeros, key=lambda lm: abs(lm[0]))
        return ConsistencyReport(False, strip, first[0])

    def asymptotic_profile(self) -> AsymptoticProfile:
        """Closed-form growth parameters derived from Stirling's expansion."""
        gamma = Fraction(0)
        gamma_prime = Fraction(0)
        delta = 0.0
        kappa = self.log_scale
        log_c1 = math.log(self.constant)
        log_c1 += 0.5 * (len(self.num) - len(self.den)) * math.log(_TWO_PI)
        for factors, sign in ((self.num, 1), (self.den, -1)):
            for f in factors:
                a = float(f.slope)
                gamma += sign * abs(f.slope)
                gamma_prime += sign * f.slope
                delta += sign * (f.offset - 0.5)
                kappa += sign * a * math.log(abs(a))
                log_c1 += sign * (f.offset - 0.5) * math.log(abs(a))
        return AsymptoticProfile(float(gamma), float(gamma_prime), delta,
                                 kappa, math.exp(log_c1))

    # ---------------------------------------------------------- serialization

    def to_json_dict(self) -> dict:
        def pack(factors):
            return [[f.slope.numerator, f.slope.denominator, f.offset]
                    for f in factors]
        return {
            "constant": self.constant,
            "log_scale": self.log_scale,
            "num": pack(self.num),
            "den": pack(self.den),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GammaTypeForm":
        def unpack(items):
            return tuple(GammaFactor(Fraction(int(p), int(q)), float(b))
                         for p, q, b in items)
        return cls(float(data["constant"]), float(data["log_scale"]),
                   unpack(data["num"]), unpack(data["den"]))

    def sorted_factors(self) -> tuple[tuple, tuple]:
        return (tuple(sorted(self.num, key=GammaFactor.sort_key)),
                tuple(sorted(self.den, key=GammaFactor.sort_key)))


def make_form(constant: float, log_scale: float,
              num: Sequence[tuple] = (), den: Sequence[tuple] = ()) -> GammaTypeForm:
    """Build a form from (slope, offset) pairs.

    Slopes may be ints, Fractions, or exactly-representable floats.
    """
    return GammaTypeForm(
        float(constant), float(log_scale),
        tuple(GammaFactor(_as_slope(a), float(b)) for a, b in num),
        tuple(GammaFactor(_as_slope(a), float(b)) for a, b in den),
    )


def _structurally_equal(f: GammaTypeForm, g: GammaTypeForm, tol: float) -> bool:
    fn, fd = f.sorted_factors()
    gn, gd = g.sorted_factors()
    if len(fn) != len(gn) or len(fd) != len(gd):
        return False
    for a, b in zip(fn + fd, gn + gd):
        if a.slope != b.slope or abs(a.offset - b.offset) > OFFSET_TOL:
            return False
    return (abs(math.log(f.constant) - math.log(g.constant)) <= tol
            and abs(f.log_scale - g.log_scale) <= tol)


def _comparison_grid(strip: AnalyticityStrip) -> list[complex]:
    lo, hi = strip.rho_minus, strip.rho_plus
    if math.isinf(lo) and math.isinf(hi):
        lo, hi = -3.0, 3.0
    elif math.isinf(lo):
        lo = min(-2.0, hi - 4.0)
    elif math.isinf(hi):
        hi = max(2.0, lo + 4.0)
    width = hi - lo
    reals = [lo + width * k / 6.0 for k in range(1, 6)]
    imags = [-3.0, -1.5, 0.0, 1.5, 3.0]
    return [complex(re, im) for re in reals for im in imags]


def moments_equal(f: GammaTypeForm, g: GammaTypeForm,
                  tol: float = 1e-10) -> bool:
    """Decide whether two forms represent the same function.

    Fast path: structural identity of sorted factor lists.  Otherwise the
    logs are compared on a 25-point complex grid inside the intersection
    of the two strips (imaginary parts compared modulo 2 pi, since the
    log-space sums of different representations may sit on different
    branches).
    """
    if _structurally_equal(f, g, tol):
        return True
    strip = f.strip().intersect(g.strip())
    for s in _comparison_grid(strip):
        try:
            lf = f.evaluate_log(s)
            lg = g.evaluate_log(s)
        except PoleError:
            continue
        if lf.real == -math.inf or lg.real == -math.inf:
            if lf.real != lg.real:
                return False
            continue
        d_re = abs(lf.real - lg.real)
        d_im = abs(lf.imag - lg.imag) % _TWO_PI
        d_im = min(d_im, _TWO_PI - d_im)
        if (d_re + d_im) / max(1.0, abs(lf)) > tol:
            return False
    return True
