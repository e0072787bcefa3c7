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
import heapq
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    EmptyStripError,
    InvalidFormError,
    PoleError,
    UndecidedStripError,
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

# a strip side still undecided after this many pole visits (about 1 s)
# raises UndecidedStripError
VISIT_BUDGET = 250_000

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


@dataclass(frozen=True)
class AnalyticityStrip:
    """Open interval (rho_minus, rho_plus) of analyticity around 0."""

    rho_minus: float
    rho_plus: float

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


def pole_index(a: float, b: float, s: float) -> int | None:
    """The n >= 0 with a s + b = -n, or None if Gamma(a s + b) has no pole at s.

    s must match the pole (-n - b) / a within OFFSET_TOL, relative once
    |s| > 1.
    """
    n = round(-(a * s + b))
    if n >= 0 and abs((-n - b) / a - s) <= OFFSET_TOL * max(1.0, abs(s)):
        return n
    return None


def _walk(factors, direction: int) -> tuple[float, float]:
    """(edge, zero) on one side of s = 0 for (factor, sign) pairs.

    The poles of num (sign +1) and den (sign -1) factors are visited in
    order of |s|, by one heap over their arithmetic progressions, and their
    signs summed per location.  The edge is the first positive sum, the
    zero the first negative one before it; direction * inf if none.  Of
    coinciding locations, which may differ in the last bit, the lowest is
    returned.  Past t0, the last start -b/a of a progression, only the
    progressions that run on forever remain and the sums repeat with the
    lcm of their spacings, so the walk ends one period past the first
    location beyond t0.  Past VISIT_BUDGET visits it raises.
    """
    heap, starts, endless = [], [], []
    for f, sign in factors:
        # in t = direction * s the poles are t_n = (-n - b) / a, n >= 0
        a, b = float(f.slope) * direction, f.offset
        starts.append(-b / a)
        if a > 0:  # t_n falls with n: walk n down from the last t_n > 0
            n, step = math.ceil(-b) - 1, -1
        else:      # t_n grows with n: walk n up from the first t_n > 0
            n, step = max(0, math.floor(-b) + 1), 1
            endless.append(f.slope)
        if n >= 0:
            heap.append(((-n - b) / a, n, step, a, b, sign))
    heapq.heapify(heap)
    t0 = max(starts, default=0.0)
    end, zero, visits = math.inf, direction * math.inf, 0
    while heap and heap[0][0] < end:
        t = heap[0][0]
        here = []  # the poles at t
        while heap and heap[0][0] - t <= OFFSET_TOL * max(1.0, t):
            here.append(heapq.heappop(heap))
        visits += len(here)
        if visits > VISIT_BUDGET:
            raise UndecidedStripError(
                f"strip edge undecided after {VISIT_BUDGET} pole visits")
        net = sum(p[-1] for p in here)
        if t > OFFSET_TOL and net:  # s = 0 is the caller's
            s = min(direction * u for u, *_ in here)
            if net > 0:
                return s, zero
            if math.isinf(zero):
                zero = s
        if end == math.inf and t > t0:  # period lcm(q) / gcd(|p|)
            end = t + (math.lcm(*(a.denominator for a in endless))
                       / math.gcd(*(a.numerator for a in endless)))
        for _, n, step, a, b, sign in here:
            if n + step >= 0:
                heapq.heappush(heap, ((-n - step - b) / a, n + step, step,
                                      a, b, sign))
    return direction * math.inf, zero


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

    def _poles(self) -> tuple[AnalyticityStrip, float | None]:
        """The strip and the zero nearest 0 in it, common factors cancelled."""
        num, den = Counter(self.num), Counter(self.den)
        factors = ([(f, 1) for f in (num - den).elements()]
                   + [(f, -1) for f in (den - num).elements()])
        at_zero = sum(sign for f, sign in factors
                      if pole_index(float(f.slope), f.offset, 0.0) is not None)
        if at_zero > 0:
            raise InvalidFormError("net Gamma pole at s = 0")
        (lo, neg), (hi, pos) = _walk(factors, -1), _walk(factors, +1)
        # zeros at -z and z can differ in the last bit: the positive one
        # wins only if nearer by more than the location tolerance
        nearest = (0.0 if at_zero < 0 else
                   pos if pos < -neg - OFFSET_TOL * max(1.0, pos) else neg)
        return (AnalyticityStrip(lo, hi),
                None if math.isinf(nearest) else nearest)

    def strip(self) -> AnalyticityStrip:
        """Maximal open strip around 0 free of net numerator poles.

        Raises InvalidFormError if a net pole sits at s = 0 (such a form
        cannot be the moment function of a positive variable), and
        UndecidedStripError if the pole walk exceeds its visit budget.
        """
        return self._poles()[0]

    def check_positive_consistency(self) -> ConsistencyReport:
        """Locate zeros of F inside the open strip of analyticity.

        A moment function of a positive variable cannot vanish inside its
        strip, so any such zero marks an inconsistent form.  The zero
        nearest 0 is reported, the negative one on a tie (distances from 0
        equal within OFFSET_TOL, relative past 1).
        """
        strip, zero = self._poles()
        return ConsistencyReport(zero is None, strip, zero)

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

    Fast path: the factor multisets num(F) + den(G) and num(G) + den(F)
    are equal, and so are the constants and exponents within tol.
    Otherwise the logs are compared on a 25-point complex grid inside the
    intersection of the two strips (imaginary parts compared modulo 2 pi,
    since the log-space sums of different representations may sit on
    different branches).  tol must be finite and >= 0.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValidationError(f"tol must be finite and >= 0, got {tol!r}")
    if (Counter(f.num) + Counter(g.den) == Counter(g.num) + Counter(f.den)
            and abs(math.log(f.constant) - math.log(g.constant)) <= tol
            and abs(f.log_scale - g.log_scale) <= tol):
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
