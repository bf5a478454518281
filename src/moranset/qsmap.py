"""Parametric increasing map families, image branch hierarchies, the
length-power measure on images, refinement statistics, and the sampled
sandwich audit.

Maps are restricted to families with known increasing structure (identity,
affine, signed power, piecewise linear, compositions).  Image endpoints are
either exact rationals (when the map preserves rationality) or enclosures
computed round-to-nearest at `prec + 32` bits and widened by
`max(|v|, 1)·2^-prec` on each side.  The widening is meant to make every
reported branch contain the true image, but it is not certified by interval
arithmetic (ROADMAP item 4).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Sequence

import mpmath

from .branchtree import BranchTree
from .dimension import fit_slope, log_series
from .errors import (ConfigError, DegenerateSpecError, DomainError,
                     InvalidSpecError, PrecisionError)
from .reconstruct import StarState

_GUARD_BITS = 32
DEFAULT_PRECISION_BITS = 128


def check_length_power(d: float | Fraction) -> None:
    if not 0 < d < 1:
        raise DomainError(f"length-power exponent d={float(d)} outside (0, 1)")


def check_precision_bits(bits: int) -> None:
    if bits < 1:
        raise DomainError(f"precision {bits} bits must be >= 1")


def check_samples(samples: int) -> None:
    if samples < 1:
        raise DomainError(f"sample count {samples} must be >= 1")


# ---------------------------------------------------------------------------
# Exact rational powers
# ---------------------------------------------------------------------------

def _iroot(n: int, q: int) -> int | None:
    """Exact integer q-th root of n >= 0, or None if n is not a q-th power."""
    if q == 1 or n in (0, 1):
        return n
    x = 1 << -(-n.bit_length() // q)
    while True:
        y = ((q - 1) * x + n // x ** (q - 1)) // q
        if y >= x:
            break
        x = y
    return x if x ** q == n else None


def rational_pow(x: Fraction, a: Fraction) -> Fraction | None:
    """x^a as an exact rational for x >= 0, or None when irrational."""
    if x < 0:
        raise DomainError("rational_pow needs x >= 0")
    if x == 0:
        return Fraction(0) if a > 0 else None
    p, q = a.numerator, a.denominator
    num = _iroot(x.numerator, q)
    den = _iroot(x.denominator, q)
    if num is None or den is None:
        return None
    base = Fraction(num, den)
    return base ** p


def _mpf_to_fraction(y: mpmath.mpf) -> Fraction:
    sign, man, exp, _ = mpmath.mpf(y)._mpf_
    if man == 0:
        return Fraction(0)
    v = Fraction(man) * Fraction(2) ** exp
    return -v if sign else v


def _mpf_from_fraction(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)


# ---------------------------------------------------------------------------
# Map families
# ---------------------------------------------------------------------------

class QsMap:
    """Strictly increasing homeomorphism of the real line."""

    def exact_eval(self, x: Fraction) -> Fraction | None:
        """Exact image when representable, else None."""
        raise NotImplementedError

    def float_eval(self, x: float) -> float:
        raise NotImplementedError

    def approx_eval(self, x: Fraction, prec: int) -> Fraction:
        """Round-to-nearest image at prec + guard bits, as a dyadic rational."""
        with mpmath.workprec(prec + _GUARD_BITS):
            return _mpf_to_fraction(self._mpf_eval(_mpf_from_fraction(x)))

    def _mpf_eval(self, x: mpmath.mpf) -> mpmath.mpf:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class IdentityMap(QsMap):
    def exact_eval(self, x):
        return x

    def float_eval(self, x):
        return x

    def _mpf_eval(self, x):
        return x

    def describe(self):
        return "identity"


@dataclass(frozen=True)
class AffineMap(QsMap):
    a: Fraction
    b: Fraction

    def __post_init__(self):
        if self.a <= 0:
            raise InvalidSpecError(f"affine slope must be positive, got {self.a}")

    def exact_eval(self, x):
        return self.a * x + self.b

    def float_eval(self, x):
        return float(self.a) * x + float(self.b)

    def _mpf_eval(self, x):
        return _mpf_from_fraction(self.a) * x + _mpf_from_fraction(self.b)

    def describe(self):
        return f"affine({self.a},{self.b})"


@dataclass(frozen=True)
class PowerMap(QsMap):
    """x -> sign(x) |x|^a with a > 0."""
    a: Fraction

    def __post_init__(self):
        if self.a <= 0:
            raise InvalidSpecError(f"power exponent must be positive, got {self.a}")

    def exact_eval(self, x):
        v = rational_pow(abs(x), self.a)
        if v is None:
            return None
        return -v if x < 0 else v

    def float_eval(self, x):
        return math.copysign(abs(x) ** float(self.a), x) if x else 0.0

    def _mpf_eval(self, x):
        if x == 0:
            return mpmath.mpf(0)
        v = mpmath.power(abs(x), _mpf_from_fraction(self.a))
        return -v if x < 0 else v

    def describe(self):
        return f"power({self.a})"


class PiecewiseLinearMap(QsMap):
    """Increasing polyline through rational breakpoints, extended beyond the
    first/last breakpoint with the adjacent slope."""

    def __init__(self, points: Sequence[tuple[Fraction, Fraction]]):
        if len(points) < 2:
            raise InvalidSpecError("piecewise-linear map needs >= 2 breakpoints")
        self.points = [(Fraction(x), Fraction(y)) for x, y in points]
        for (x0, y0), (x1, y1) in zip(self.points, self.points[1:]):
            if x1 <= x0 or y1 <= y0:
                raise InvalidSpecError(
                    "piecewise-linear breakpoints must be strictly increasing "
                    "in both coordinates")
        self.slopes = [(y1 - y0) / (x1 - x0)
                       for (x0, y0), (x1, y1) in zip(self.points, self.points[1:])]

    def exact_eval(self, x):
        x = Fraction(x)
        i = bisect_right(self.points, x, key=itemgetter(0)) - 1
        i = min(max(i, 0), len(self.slopes) - 1)
        x0, y0 = self.points[i]
        return y0 + self.slopes[i] * (x - x0)

    def float_eval(self, x):
        return float(self.exact_eval(Fraction(x)))

    def _mpf_eval(self, x):
        return _mpf_from_fraction(self.exact_eval(_mpf_to_fraction(x)))

    def describe(self):
        pts = ";".join(f"{x},{y}" for x, y in self.points)
        return f"pl({pts})"


class CompositionMap(QsMap):
    """parts[0] applied first, then parts[1], and so on."""

    def __init__(self, parts: Sequence[QsMap]):
        if not parts:
            raise InvalidSpecError("empty composition")
        self.parts = list(parts)

    def exact_eval(self, x):
        for p in self.parts:
            x = p.exact_eval(x)
            if x is None:
                return None
        return x

    def float_eval(self, x):
        for p in self.parts:
            x = p.float_eval(x)
        return x

    def _mpf_eval(self, x):
        for p in self.parts:
            x = p._mpf_eval(x)
        return x

    def describe(self):
        return "+".join(p.describe() for p in self.parts)


def parse_map(text: str) -> QsMap:
    """Parse "identity", "affine:a,b", "power:a", "pl:x,y;x,y;...", or a
    '+'-joined composition applied left to right."""
    from .specs import parse_rational
    parts = []
    for token in text.split("+"):
        token = token.strip()
        name, _, args = token.partition(":")
        try:
            if name == "identity":
                parts.append(IdentityMap())
            elif name == "affine":
                a, b = (parse_rational(v) for v in args.split(","))
                parts.append(AffineMap(a, b))
            elif name == "power":
                parts.append(PowerMap(parse_rational(args)))
            elif name == "pl":
                pts = [tuple(parse_rational(v) for v in pair.split(","))
                       for pair in args.split(";")]
                parts.append(PiecewiseLinearMap(pts))
            else:
                raise ConfigError(f"unknown map family {name!r}")
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad map token {token!r}: {exc}")
    return parts[0] if len(parts) == 1 else CompositionMap(parts)


# ---------------------------------------------------------------------------
# Image hierarchy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImageBranch:
    lo: Fraction
    hi: Fraction
    parent: int
    exact: bool

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo


class ImageTree:
    def __init__(self, fmap: QsMap, source: BranchTree, precision_bits: int,
                 levels: list[list[ImageBranch]]):
        self.fmap = fmap
        self.source = source
        self.precision_bits = precision_bits
        self.levels = levels

    @property
    def m_max(self) -> int:
        return len(self.levels) - 1

    def hull(self) -> tuple[Fraction, Fraction]:
        top = self.levels[0][0]
        return top.lo, top.hi


def _enclose(fmap: QsMap, x: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    exact = fmap.exact_eval(x)
    if exact is not None:
        return exact, exact
    v = fmap.approx_eval(x, prec)
    pad = max(abs(v), Fraction(1)) * Fraction(2) ** -prec
    return v - pad, v + pad


def image_tree(fmap: QsMap, tree: BranchTree,
               precision_bits: int = DEFAULT_PRECISION_BITS) -> ImageTree:
    """Map every branch through fmap.  An inexact endpoint is evaluated
    round-to-nearest at `precision_bits + 32` bits and widened by
    `max(|v|, 1)·2^-precision_bits` on each side; the branch spans the lower
    end of its lower endpoint to the upper end of its upper one.  The
    widening is not certified (ROADMAP item 4)."""
    check_precision_bits(precision_bits)
    if tree.mode != "explicit":
        raise DomainError("image trees need an explicitly built branch hierarchy")
    cache: dict[Fraction, tuple[Fraction, Fraction]] = {}

    def enclose(x: Fraction) -> tuple[Fraction, Fraction]:
        if x not in cache:
            cache[x] = _enclose(fmap, x, precision_bits)
        return cache[x]

    levels = []
    for m, branches in enumerate(tree.explicit):
        out = []
        for i, br in enumerate(branches):
            lo_lo, lo_hi = enclose(br.lo)
            hi_lo, hi_hi = enclose(br.hi)
            if br.hi > br.lo and lo_hi >= hi_lo:
                raise PrecisionError(
                    f"branch {i} at level {m} collapses at "
                    f"{precision_bits} bits; raise the precision")
            out.append(ImageBranch(lo_lo, hi_hi, br.parent,
                                   lo_lo == lo_hi and hi_lo == hi_hi))
        levels.append(out)
    return ImageTree(fmap, tree, precision_bits, levels)


# ---------------------------------------------------------------------------
# Length-power measure on the image
# ---------------------------------------------------------------------------

class ImageMeasure:
    """Probability measure splitting each branch's mass among its children
    proportionally to the d-th power of their lengths.

    Weights use exact d-th powers when the lengths admit them (always when
    siblings have equal lengths) and high-precision dyadics otherwise; the
    normalization is exact division, so sibling masses always sum exactly to
    the parent mass.
    """

    def __init__(self, image: ImageTree, d: float | Fraction,
                 masses: list[list[Fraction]]):
        self.image = image
        self.d = d
        self.masses = masses


def _power_weights(lengths: list[Fraction], d: Fraction,
                   prec: int) -> list[Fraction]:
    if any(l <= 0 for l in lengths):
        raise DegenerateSpecError("zero-length image branch; cannot weight by length")
    if len(set(lengths)) == 1:
        return [Fraction(1)] * len(lengths)
    exact = [rational_pow(l, d) for l in lengths]
    if all(w is not None for w in exact):
        return exact
    with mpmath.workprec(prec + _GUARD_BITS):
        dd = _mpf_from_fraction(d)
        return [_mpf_to_fraction(mpmath.power(_mpf_from_fraction(l), dd))
                for l in lengths]


def build_mu_d(image: ImageTree, d: float | Fraction) -> ImageMeasure:
    check_length_power(d)
    d = Fraction(d).limit_denominator(10**12) if not isinstance(d, Fraction) else d
    masses: list[list[Fraction]] = [[Fraction(1)]]
    for m in range(1, image.m_max + 1):
        by_parent: dict[int, list[int]] = {}
        for i, br in enumerate(image.levels[m]):
            by_parent.setdefault(br.parent, []).append(i)
        level_mass = [Fraction(0)] * len(image.levels[m])
        for parent, idxs in by_parent.items():
            lengths = [image.levels[m][i].length for i in idxs]
            weights = _power_weights(lengths, d, image.precision_bits)
            total = sum(weights)
            pmass = masses[m - 1][parent]
            for i, w in zip(idxs, weights):
                level_mass[i] = pmass * w / total
        masses.append(level_mass)
    return ImageMeasure(image, d, masses)


@dataclass
class RatioSeries:
    levels: list[int]
    ratios: list[float]          # per level, max of mass / length^d
    growth_rate: float           # least-squares slope of log ratio per level

    def max_ratio(self) -> float:
        return max(self.ratios)


def prop1_ratio_series(measure: ImageMeasure, K: int | None = None) -> RatioSeries:
    """Per-level max of mass / length^d over the image branches, with the
    log-growth rate; boundedness of this series is the audited claim."""
    image = measure.image
    top = image.m_max if K is None else K
    d = float(measure.d)
    levels = list(range(1, top + 1))
    ratios = []
    for m in levels:
        best = max(float(mass) / float(br.length) ** d
                   for br, mass in zip(image.levels[m], measure.masses[m]))
        ratios.append(best)
    return RatioSeries(levels, ratios,
                       fit_slope([float(m) for m in levels],
                                 [math.log(r) for r in ratios]))


def prop1_ratio_series_uniform(star: StarState, d: float, K: int) -> RatioSeries:
    """Closed form of the ratio series for the identity map on a construction
    whose siblings all share one length: every level-k branch then carries
    mass 1/(interval count), so the max ratio is count^-1 * length^-d."""
    check_length_power(d)
    ratios = [math.exp(-log_count - d * log_len)
              for log_count, log_len in log_series(star, K)]
    levels = list(range(1, K + 1))
    return RatioSeries(levels, ratios,
                       fit_slope([float(m) for m in levels],
                                 [math.log(r) for r in ratios]))


# ---------------------------------------------------------------------------
# Refinement statistics
# ---------------------------------------------------------------------------

@dataclass
class QsStats:
    """Per-level refinement statistics of a branch hierarchy.

    Indexing: beta/theta/kappa at level m describe the refinement from level
    m to m+1 (defined for 0 <= m < m_top); chi and the level-ratio series
    compare level m to m-1 (defined for 1 <= m <= m_top).
    """
    m_top: int
    M: int
    beta: list[Fraction]
    theta: list[Fraction]
    kappa: list[Fraction]
    chi: list[Fraction]
    lambda_star: list[Fraction]
    lambda_under: list[Fraction]
    gamma_star: list[Fraction]
    gamma_under: list[Fraction]
    l_T: list[Fraction]          # total branch length, levels 0..m_top

    def rows(self):
        """CSV-ready rows (m, beta, theta, chi, kappa, lambda_star,
        lambda_under, gamma_star, gamma_under, l_Tm); blank where a statistic
        is undefined at that level."""
        for m in range(self.m_top + 1):
            def at(series, idx, lo):
                return float(series[idx]) if idx >= lo and idx < len(series) else ""
            yield (m,
                   at(self.beta, m, 0), at(self.theta, m, 0),
                   at(self.chi, m - 1, 0),
                   at(self.kappa, m, 0),
                   at(self.lambda_star, m - 1, 0), at(self.lambda_under, m - 1, 0),
                   at(self.gamma_star, m - 1, 0), at(self.gamma_under, m - 1, 0),
                   float(self.l_T[m]))


def stats_series(tree: BranchTree, m_top: int | None = None) -> QsStats:
    """Exact statistic series through level m_top (default: one below the
    built depth so the refinement at the top level is observable)."""
    if m_top is None:
        m_top = tree.m_max - 1
    if m_top < 1:
        raise DomainError(f"m_max = {m_top + 1} is out of range: refinement "
                          "statistics need m_max >= 2")
    beta, theta, kappa = [], [], []
    for m in range(m_top):
        b = t = kp = None
        for rec in tree.gap_structure(m):
            rb = max(rec.gap_lengths) / rec.length
            rt = sum(rec.child_lengths) / rec.length
            if b is None or rb > b:
                b = rb
            if t is None or rt < t:
                t = rt
            if rec.interior_star_gaps:
                rk = min(rec.interior_star_gaps) / rec.length
                if kp is None or rk < kp:
                    kp = rk
        beta.append(b)
        theta.append(t)
        kappa.append(kp)
    chi = [tree.chi(m) for m in range(1, m_top + 1)]
    stats = [tree.branch_stats(m) for m in range(m_top + 1)]
    lam_s, lam_u, gam_s, gam_u = [], [], [], []
    for m in range(1, m_top + 1):
        cur, prev = stats[m], stats[m - 1]
        lam_s.append(cur.max_len / prev.min_len)
        lam_u.append(cur.min_len / prev.max_len)
        k = tree.schedule.stage_of(m)
        st = tree.star.stats(k)
        gam_s.append(st.max_gap / prev.min_len)
        gam_u.append(st.min_gap / prev.max_len)
    return QsStats(m_top, tree.schedule.M, beta, theta, kappa, chi,
                   lam_s, lam_u, gam_s, gam_u,
                   [s.total_len for s in stats])


# ---------------------------------------------------------------------------
# Sampling audits
# ---------------------------------------------------------------------------

@dataclass
class SandwichFit:
    p: float
    q: float
    lam: float
    samples: int


def sandwich_audit(fmap: QsMap, domain: tuple[float, float], samples: int,
                   seed: int) -> SandwichFit:
    """Empirical envelope exponents over sampled nested interval pairs
    I' inside I: the largest p and smallest q with
    lam * r^q <= |f(I')| / |f(I)| <= 4 * r^p, r = |I'|/|I|, lam = 1."""
    check_samples(samples)
    lo, hi = float(domain[0]), float(domain[1])
    rng = random.Random(f"{seed}|pairs")
    p_fit = math.inf
    q_fit = 0.0
    n = 0
    for _ in range(samples):
        a, b = sorted((rng.uniform(lo, hi), rng.uniform(lo, hi)))
        if b - a <= 0:
            continue
        u, v = sorted((rng.uniform(a, b), rng.uniform(a, b)))
        if v - u <= 0 or (v - u) >= (b - a):
            continue
        r = (v - u) / (b - a)
        fl = fmap.float_eval(b) - fmap.float_eval(a)
        fs = fmap.float_eval(v) - fmap.float_eval(u)
        if fl <= 0 or fs <= 0:
            continue
        s = fs / fl
        n += 1
        q_fit = max(q_fit, math.log(s) / math.log(r))
        p_fit = min(p_fit, math.log(s / 4.0) / math.log(r))
    if n == 0:
        raise DomainError("no valid nested pairs sampled")
    return SandwichFit(min(p_fit, 1.0), q_fit, 1.0, n)

