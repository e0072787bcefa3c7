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
import itertools
import math
import sys
from collections import Counter
from functools import cached_property
from fractions import Fraction
from numbers import Integral
from typing import Sequence

from .errors import (
    InvalidFormError,
    MomentRangeError,
    PoleError,
    UndecidedStripError,
    ValidationError,
    integer,
    number,
    real,
)
from .record import Record
from .specfun import exp_or_inf, gamma_real, log_gamma

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

# above this |slope| poles near s = 0 lie closer than 2 * OFFSET_TOL and
# the walk would merge them; past |s| = 70 its merge radius is 64 eps |s|
# (see _merges), so there the resolvable |slope| falls as 1 / |s|
MAX_SLOPE = 1 / (2 * OFFSET_TOL)
_MAX_SLOPE_INT = 500_000_000_000  # MAX_SLOPE exactly, for exact comparison

# moments_equal compares the exponent alpha s + beta of F/G with 0 within
# this, absolutely, in alpha, Re beta and Im beta (modulo 2 pi)
IDENTITY_TOL = 1e-10

# a strip side still undecided after this many pole visits (about 1 s)
# raises UndecidedStripError
VISIT_BUDGET = 250_000

_TWO_PI = 2.0 * math.pi


def _fsum(terms) -> float:
    """math.fsum(terms); past the float range inf or nan, as a float sum
    gives, where fsum raises."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):  # an overflow, or inf - inf
        return sum(terms)


def _as_slope(a) -> Fraction:
    """Coerce a slope to an exact Fraction.

    An integer is exact; any other real becomes the nearest fraction with
    denominator at most 10**12, so 1/1.234 is 500/617 wherever it is
    written.  Pass a Fraction for an exact slope beyond that.
    """
    if isinstance(a, Fraction):
        return a
    if type(a) is int or type(a) is not float and isinstance(a, Integral):
        return Fraction(integer(a, "slope"))
    return Fraction(real(a, "slope")).limit_denominator(10 ** 12)


_set = object.__setattr__


class GammaFactor(Record):
    """One factor Gamma(slope * s + offset); float_slope = float(slope)."""

    __slots__ = ("slope", "offset", "float_slope")
    _fields = ("slope", "offset")

    def __init__(self, slope: Fraction, offset: float):
        slope, offset = _as_slope(slope), real(offset, "factor offset")
        if slope.numerator == 0:
            raise ValidationError("factor slope must be nonzero")
        # |slope| > MAX_SLOPE in integers: a Fraction-float comparison
        # costs most of the constructor
        if abs(slope.numerator) > _MAX_SLOPE_INT * slope.denominator:
            raise ValidationError(f"|slope| {float(slope)!r} above "
                                  f"{MAX_SLOPE:g}: poles too close to resolve")
        _set(self, "slope", slope)
        _set(self, "offset", offset)
        _set(self, "float_slope", float(slope))


class AnalyticityStrip(Record):
    """Open interval (rho_minus, rho_plus) of analyticity around 0."""

    __slots__ = _fields = ("rho_minus", "rho_plus")


class AsymptoticProfile(Record):
    """Growth parameters of log F(s): gamma' s log s + kappa s + delta log s + log c1.

    ``gamma`` governs the exponential decay exp(-pi gamma |t| / 2) along
    vertical lines.
    """

    __slots__ = _fields = ("gamma", "gamma_prime", "delta", "kappa", "c1")


class ConsistencyReport(Record):
    """Outcome of the zero-free-strip check."""

    __slots__ = _fields = ("passed", "strip", "zero_location")
    _defaults = (None,)


def _merges(t: float, u: float) -> bool:
    """Whether a pole at u >= t joins the location that starts at t >= 0:
    within OFFSET_TOL of t, or of 64 eps t = 2^-46 t past t = 70, as only
    rounding (a few eps t / 2 per location) can split a pole out there."""
    return u - t <= max(OFFSET_TOL, 2 ** -46 * t)


def _net(num, den) -> list:
    """(factor, count) pairs, one per distinct factor, left after cancelling
    factors common to num and den: count > 0 in num, < 0 in den."""
    num, den = Counter(num), Counter(den)
    return ([*(num - den).items()]
            + [(f, -count) for f, count in (den - num).items()])


def _power(x: float, count: int) -> float:
    """x ** count, saturating to the signed inf that count products give."""
    try:
        return x ** count
    except (OverflowError, ZeroDivisionError):
        return math.copysign(math.inf, x) if count % 2 else math.inf


def _stirling(log_c: float, log_scale: float, factors) -> tuple:
    """(delta, kappa, log C1, quarter turns) of Stirling's expansion of
    C e^(log_scale s) prod Gamma(a s + b)^count over the (factor, count)
    pairs: the sums of count (b - 1/2), log_scale + count a log|a|, log C +
    count ((b - 1/2) log|a| + log(2 pi) / 2) and count sgn(a) (b - 1/2).
    Each is rounded once (_fsum), so terms that cancel exactly give 0."""
    delta, kappa, quarter_turns = [], [log_scale], []
    log_c1 = [log_c,
              0.5 * math.log(_TWO_PI) * sum(count for _, count in factors)]
    for factor, count in factors:
        a, b = factor.float_slope, factor.offset - 0.5
        log_a = math.log(abs(a))
        delta.append(count * b)
        kappa.append(count * a * log_a)
        log_c1.append(count * b * log_a)
        quarter_turns.append(count * b if a > 0 else -count * b)
    return tuple(map(_fsum, (delta, kappa, log_c1, quarter_turns)))


def _classes(slopes: dict) -> list[list]:
    """Split the slopes of the unbounded progressions into classes whose
    net pole counts far out must each vanish if their sum does.

    slopes maps each |slope|, an integer in a common unit, to its number
    of progressions.  Far out a class's net count is periodic with
    frequencies in the lattices a Z of its slopes, and a frequency it
    shares with another class lies in lcm(a, a') Z.  If the sum vanishes,
    so do the class's other frequencies: its count has period 1 / M, M the
    gcd of those lcms, and a nonzero count with that period has at least
    M locations per unit length.  The class's progressions have at most
    the sum of their a, so for a larger M the count vanishes.  A class
    failing that bound is merged with the class it shares most with.
    """
    classes = [[a] for a in slopes]
    while len(classes) > 1:
        for c in classes:
            others = [d for d in classes if d is not c]
            links = [math.gcd(*(math.lcm(x, y) for x in c for y in d))
                     for d in others]
            if math.gcd(*links) <= sum(a * slopes[a] for a in c):
                d = others[links.index(min(links))]
                classes.remove(d)
                c.extend(d)
                break
        else:
            break
    return classes


def _cancels(progressions: dict, slopes, unit: int) -> bool:
    """Whether the cosets unit * (n + b) / a, n in Z, of the (offset b,
    count) progressions of these slopes have net count 0 everywhere.

    The count has period unit / gcd(a); the locations of one period are
    sorted and merged as _walk merges them, the last with the first across
    the period boundary.  A period of more than VISIT_BUDGET locations is
    left to the walk: False.
    """
    g = math.gcd(*slopes)
    if sum(a // g * len(progressions[a]) for a in slopes) > VISIT_BUDGET:
        return False
    points = sorted(((b % 1 + k) * (unit / a), count) for a in slopes
                    for b, count in progressions[a] for k in range(a // g))
    nets, start = [], -math.inf
    for t, count in points:
        if not _merges(start, t):
            nets.append(0)
            start = t
        nets[-1] += count
    wrapped = points[0][0] + unit / g
    if len(nets) > 1 and _merges(start, wrapped):
        nets[0] += nets.pop()
    return not any(nets)


def _tail_period(endless) -> float:
    """Period of the net pole count past every start of the unbounded
    (slope, offset, count) progressions: the lcm of the spacings of the
    classes (see _classes) that do not cancel, 0 if all do."""
    # in units of 1 / lcm(q) the slopes p / q are integers
    unit = math.lcm(*(a.denominator for a, _, _ in endless))
    progressions = {}
    for a, b, count in endless:
        scaled = abs(a.numerator) * (unit // a.denominator)
        progressions.setdefault(scaled, []).append((b, count))
    counts = {a: len(ps) for a, ps in progressions.items()}
    live = [a for c in _classes(counts)
            if not _cancels(progressions, c, unit) for a in c]
    if not live:
        return 0.0
    period = Fraction(unit, math.gcd(*live))
    # past the float range the visit budget ends the walk first
    return float(period) if period < 2 ** 1000 else math.inf


def _walk(factors, direction: int):
    """Yield (s, net, poles) for each location on one side of s = 0 where
    the (factor, count) pairs have a nonzero net pole count, in order of
    |s|; poles holds the (t, n, step, a, b, count, i) of each pole there,
    nearest 0 first, with t = direction * s, step the step of n that walks
    outward and i the index of the pole's pair.

    The poles of num (count > 0) and den (count < 0) factors are visited,
    once per distinct factor, by one heap over their arithmetic
    progressions and their counts summed per location.  Of coinciding
    locations, which may differ in the last bit, the lowest s is yielded.
    Past t0, the last start -b/a of a progression, only the progressions
    that run on forever remain, and the sums repeat with the lcm of the
    spacings of the classes (see _classes) that do not cancel, so the walk
    ends one such period past the first location beyond t0, or there if
    every class cancels.  Past VISIT_BUDGET visits it raises.
    """
    heap, starts, endless = [], [], []
    for i, (f, count) in enumerate(factors):
        # in t the poles are t_n = (-n - b) / a, n >= 0
        a, b = f.float_slope * direction, f.offset
        starts.append(-b / a)
        if a > 0:  # t_n falls with n: walk n down from the last t_n > 0
            n, step = math.ceil(-b) - 1, -1
        else:      # t_n grows with n: walk n up from the first t_n > 0
            n, step = max(0, math.floor(-b) + 1), 1
            endless.append((f.slope, b, count))
        if n >= 0:
            heap.append(((-n - b) / a, n, step, a, b, count, i))
    heapq.heapify(heap)
    t0 = max(starts, default=0.0)
    end, visits = None, 0  # end is set once the walk passes t0
    while heap and (end is None or heap[0][0] < end):
        t = heap[0][0]
        here = []  # the poles at t
        while heap and _merges(t, heap[0][0]):
            here.append(heapq.heappop(heap))
        visits += len(here)
        if visits > VISIT_BUDGET:
            raise UndecidedStripError(
                f"strip edge undecided after {VISIT_BUDGET} pole visits")
        net = sum(p[5] for p in here)
        if net:
            yield min(direction * u for u, *_ in here), net, here
        if end is None and t > t0:
            end = t + _tail_period(endless)
        for _, n, step, a, b, count, i in here:
            if n + step >= 0:
                heapq.heappush(heap, ((-n - step - b) / a, n + step, step,
                                      a, b, count, i))


def _past_zero(factors) -> tuple[int, list]:
    """The net pole count at s = 0, of the poles there and of each side's
    first walk location if its start merges with 0, and the walks for s < 0
    and s > 0 past it."""
    at_zero = sum(count for f, count in factors
                  if f.offset <= 0 and f.offset.is_integer())
    walks = []
    for direction in (-1, 1):
        walk = _walk(factors, direction)
        first = next(walk, None)
        if first and _merges(0.0, first[2][0][0]):  # t of its first pole
            at_zero += first[1]
        elif first:
            walk = itertools.chain([first], walk)
        walks.append(walk)
    return at_zero, walks


def _edge_and_zero(walk, direction: int) -> tuple[tuple, float]:
    """The walk's first location with a positive net (the strip edge),
    (direction * inf, 0, []) if none, and the s of the first negative one
    before it (a zero), direction * inf if none."""
    zero = direction * math.inf
    for location in walk:
        s, net, _ = location
        if net > 0:
            return location, zero
        if math.isinf(zero):
            zero = s
    return (direction * math.inf, 0, []), zero


def _factor(item) -> GammaFactor:
    if isinstance(item, GammaFactor):
        return item
    if not (isinstance(item, (tuple, list)) and len(item) == 2):
        raise ValidationError(f"a factor is a GammaFactor or a (slope, "
                              f"offset) pair, got {item!r}")
    return GammaFactor(*item)


def _constant(constant: float) -> float:
    """constant if a positive normal float: a subnormal one keeps fewer
    than 53 bits."""
    if not constant >= sys.float_info.min:
        raise ValidationError(f"constant must be a positive real of "
                              f"at least {sys.float_info.min!r}, got "
                              f"{constant!r}")
    return constant


class GammaTypeForm(Record):
    """C exp(l s) prod Gamma(num) / prod Gamma(den), num and den of
    GammaFactors or (slope, offset) pairs; every argument is checked."""

    # no __slots__: _poles and _profile are cached in the instance __dict__
    _fields = ("constant", "log_scale", "num", "den")

    def __init__(self, constant: float, log_scale: float,
                 num: Sequence = (), den: Sequence = ()):
        _set(self, "constant", _constant(real(constant, "constant")))
        _set(self, "log_scale", real(log_scale, "log_scale"))
        _set(self, "num", tuple(map(_factor, num)))
        _set(self, "den", tuple(map(_factor, den)))

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
        rf, r = real(r, "power exponent"), _as_slope(r)
        if r == 0:
            raise ValidationError("power exponent must be nonzero")
        return GammaTypeForm(
            self.constant,
            self.log_scale * rf,
            tuple(GammaFactor(f.slope * r, f.offset) for f in self.num),
            tuple(GammaFactor(f.slope * r, f.offset) for f in self.den),
        )

    def scale(self, c: float) -> "GammaTypeForm":
        """Moments of c*X for c > 0: multiply by c^s."""
        if not real(c, "scale factor") > 0:
            raise ValidationError(f"scale factor must be positive, got {c!r}")
        return GammaTypeForm(self.constant, self.log_scale + math.log(c),
                             self.num, self.den)

    def reflect(self) -> "GammaTypeForm":
        """F(-s); for an MGF this is the moment function of -X."""
        return self.power(-1)

    def expand_multiplication(self, index: int, m: int,
                              side: str = "num") -> "GammaTypeForm":
        """Rewrite one factor via the Gauss multiplication formula.

        Gamma(a s + b) = (2 pi)^((1-m)/2) m^(a s + b - 1/2)
                         prod_{i=0..m-1} Gamma((a/m) s + (b+i)/m)

        The result is a different representation of the same function.  No
        walk gets through more than VISIT_BUDGET pieces, so m is at most that.
        """
        if side not in ("num", "den"):
            raise ValidationError("side must be 'num' or 'den'")
        m = integer(m, "multiplication order m")
        if not 2 <= m <= VISIT_BUDGET:
            raise ValidationError(f"multiplication order m must be 2 to "
                                  f"{VISIT_BUDGET}, got {m}")
        factors = self.num if side == "num" else self.den
        if not 0 <= index < len(factors):
            raise ValidationError(f"no {side} factor with index {index}")
        f, sign = factors[index], 1 if side == "num" else -1
        log_c = math.log(self.constant) + sign * (
            0.5 * (1 - m) * math.log(_TWO_PI) + (f.offset - 0.5) * math.log(m))
        if log_c > math.log(sys.float_info.max):
            raise ValidationError(f"expanded constant exp({log_c!r}) is past "
                                  f"the float range")
        constant = _constant(math.exp(log_c))  # before the m pieces are built
        pieces = tuple(
            GammaFactor(f.slope / m, (f.offset + i) / m) for i in range(m)
        )
        rest = factors[:index] + factors[index + 1:] + pieces
        log_scale = self.log_scale + sign * f.float_slope * math.log(m)
        return GammaTypeForm(constant, log_scale, *(
            (rest, self.den) if sign == 1 else (self.num, rest)))

    # ------------------------------------------------------------- evaluation

    def evaluate_log(self, s: complex) -> complex:
        """log F(s) as the log-space sum (principal branch per factor).

        Raises PoleError at numerator poles; returns -inf (as a real part)
        at denominator poles, where F is exactly zero.
        """
        s = number(s, "s")
        total = complex(math.log(self.constant) + self.log_scale * s.real,
                        self.log_scale * s.imag)
        for f in self.num:
            try:
                total += log_gamma(f.float_slope * s + f.offset)
            except PoleError:
                raise PoleError(s, f"numerator factor Gamma({f.slope}*s + {f.offset}) "
                                   f"has a pole at s = {s}")
        for f in self.den:
            try:
                total -= log_gamma(f.float_slope * s + f.offset)
            except PoleError:
                return complex(-math.inf, 0.0)
        return total

    def evaluate(self, s: complex) -> complex:
        """F(s); 0 at a denominator pole, inf past the float range.

        MomentRangeError where log F(s) is nan or has an infinite phase,
        as at |Im s| = 1e306.
        """
        logv = self.evaluate_log(s)
        if logv.real == -math.inf:
            return 0.0 + 0.0j
        if math.isnan(logv.real) or not math.isfinite(logv.imag):
            raise MomentRangeError(f"log F(s) at s = {s} is not finite: "
                                   f"{logv}")
        return cmath.rect(exp_or_inf(logv.real), logv.imag)

    # ------------------------------------------------------ poles and profile

    @cached_property
    def _poles(self) -> tuple[AnalyticityStrip, float | None, list, tuple]:
        """The strip, the zero nearest 0 in it, the (factor, count) pairs _net
        leaves and the left edge location (see _edge_and_zero), walked once
        per form for strip(), the consistency check and _residue_at."""
        factors = _net(self.num, self.den)
        at_zero, (left, right) = _past_zero(factors)
        if at_zero > 0:
            raise InvalidFormError("net Gamma pole at s = 0")
        (lo, neg), (hi, pos) = (_edge_and_zero(left, -1),
                                _edge_and_zero(right, 1))
        # zeros at -z and z can differ in the last bit: the positive one
        # wins only if nearer by more than the location tolerance
        nearest = 0.0 if at_zero < 0 else neg if _merges(pos, -neg) else pos
        return (AnalyticityStrip(lo[0], hi[0]),
                None if math.isinf(nearest) else nearest, factors, lo)

    def strip(self) -> AnalyticityStrip:
        """Maximal open strip around 0 free of net numerator poles.

        Raises InvalidFormError if a net pole sits at s = 0 (such a form
        cannot be the moment function of a positive variable), and
        UndecidedStripError if the pole walk exceeds its visit budget.
        """
        return self._poles[0]

    def check_positive_consistency(self) -> ConsistencyReport:
        """Locate zeros of F inside the open strip of analyticity.

        A moment function of a positive variable cannot vanish inside its
        strip, so any such zero marks an inconsistent form.  The zero
        nearest 0 is reported, the negative one on a tie (distances from 0
        that merge as pole locations do, see _merges).
        """
        strip, zero = self._poles[:2]
        return ConsistencyReport(zero is None, strip, zero)

    def _residue_at(self, s0: float) -> float:
        """lim (s - s0) F(s) as s falls to s0 < 0, read from the left edge
        location: 0.0 if the edge lies left of s0, inf if right of s0 or a
        multiple pole there, else the product of (-1)^n / (n! a) for each
        pole there, a s + b = -n, and Gamma(a s0 + b) of every other factor.
        """
        _, _, factors, (_, net, poles) = self._poles
        start = poles[0][0] if poles else math.inf
        if not _merges(min(start, -s0), max(start, -s0)):
            return 0.0 if start > -s0 else math.inf
        index = {i: n for _, n, *_, i in poles}
        res = self.constant * math.exp(self.log_scale * s0)
        for i, (f, count) in enumerate(factors):
            a, n = f.float_slope, index.get(i)
            res *= _power(gamma_real(a * s0 + f.offset) if n is None
                          else (-1) ** n / (math.factorial(n) * a), count)
        return res if net == 1 else math.inf

    def asymptotic_profile(self) -> AsymptoticProfile:
        """Closed-form growth parameters derived from Stirling's expansion
        (_stirling, which moments_equal reads too); gamma and gamma' are
        exact sums of the slopes."""
        return self._profile

    @cached_property
    def _profile(self) -> AsymptoticProfile:
        """asymptotic_profile(), computed once per form."""
        factors = [(f, 1) for f in self.num] + [(f, -1) for f in self.den]
        delta, kappa, log_c1, _ = _stirling(math.log(self.constant),
                                            self.log_scale, factors)
        gamma = sum(sign * abs(f.slope) for f, sign in factors)
        gamma_prime = sum(sign * f.slope for f, sign in factors)
        return AsymptoticProfile(float(gamma), float(gamma_prime), delta,
                                 kappa, exp_or_inf(log_c1))

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
        """The form of a to_json_dict() dict, read from outside the program:
        ValidationError names the key or item it cannot read."""
        def get(key):
            try:
                return data[key]
            except (KeyError, TypeError):
                raise ValidationError(f"form JSON has no key {key!r}") from None

        def pair(key, item):
            try:
                p, q, offset = item
                return Fraction(p, q), offset
            except (TypeError, ValueError, ZeroDivisionError):
                raise ValidationError(
                    f"form JSON {key!r}: a factor is [p, q, offset] with "
                    f"integers p and q != 0, got {item!r}") from None

        def pairs(key):
            items = get(key)
            if not isinstance(items, list):
                raise ValidationError(f"form JSON {key!r} must be a list of "
                                      f"factors, got {items!r}")
            return [pair(key, item) for item in items]
        return cls(get("constant"), get("log_scale"), pairs("num"),
                   pairs("den"))


# the constructor under the name the catalog and most callers use
make_form = GammaTypeForm


def moments_equal(f: GammaTypeForm, g: GammaTypeForm) -> bool:
    """Decide whether two forms represent the same function.

    F = G iff H = F/G is 1.  A pole or zero of H on the real line, found
    by the pole walk, means unequal.  Without one H is entire, zero-free
    and of order 1, so exp(alpha s + beta), and Stirling's formula along
    s = it reads off alpha = kappa_H, Re beta = log C1_H and Im beta =
    (pi/2) sum sign sgn(a) (b - 1/2) modulo 2 pi: F = G iff all three are
    within IDENTITY_TOL.  Nothing is evaluated.  Raises UndecidedStripError
    if the walk exceeds its budget.
    """
    factors = _net(f.num + g.den, g.num + f.den)
    at_zero, walks = _past_zero(factors)
    if at_zero or any(next(walk, None) for walk in walks):
        return False
    _, kappa, log_c1, quarter_turns = _stirling(
        math.log(f.constant) - math.log(g.constant),
        f.log_scale - g.log_scale, factors)
    phase = quarter_turns * (0.5 * math.pi) % _TWO_PI
    return max(abs(kappa), abs(log_c1),
               min(phase, _TWO_PI - phase)) <= IDENTITY_TOL
