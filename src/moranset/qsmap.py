"""Parametric increasing map families, image branch hierarchies, the
length-power measure on images, refinement statistics, and the sampled
sandwich audit.

Maps are restricted to families with known increasing structure (identity,
affine, signed power, piecewise linear, compositions).  An image endpoint is
the exact rational when the map preserves rationality, and otherwise a
certified enclosure `lo <= f(x) <= hi`.  Each family defines one exact
evaluator, the integer enclosure `QsMap.bounds` from a reduced `(num, den)`
to `(lo_num, hi_num, den)`: identity, affine and piecewise-linear maps are
exact on rationals, a power `|x|^{p/q}` is exact when `num` and then `den`
are q-th powers and otherwise lies in `[r, r+1]/2^s` for the floor integer
root `r` of `|x|^p·2^{q·s}`, and a composition pushes the lower bound
through lower bounds and the upper bound through upper bounds, since every
part is increasing (directed rounding; Moore, Kearfott & Cloud,
*Introduction to Interval Analysis*, SIAM 2009).  `float_eval` serves only
the sandwich audit's float samples.  `ImageBranch` extends the package's
one interval record, `tree.Interval`: it keeps those integers, the two
numerators over one denominator, and makes `Fraction`s only on read.

The length-power measure `mu_d` (`build_mu_d`) is one integer pass.  Each
parent's sibling lengths are the differences of their numerators over their
shared denominator (or over the lcm, where they differ), and their weights
`a^d` are integers: all 1 for equal siblings, exact integer roots when every
sibling length ratio has an exact d-th power, and otherwise mpmath mantissas
at `prec + 32` bits, shifted to one exponent.  That is the module's one
floating-point step, imported inside `_power_weights`; mpmath stays for it
because its cost does not grow with the denominator of `d` (tens of µs per
weight at 160 bits for `d = 1/2` and for a 12-digit denominator alike, where
an integer root costs 12 ms at q = 1000).  Masses are unreduced `(num, den)`
integer pairs, so every level sums to exactly 1 whatever the weights.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import groupby
from operator import attrgetter, itemgetter
from typing import Sequence

from .branchtree import BranchTree
from .dimension import fit_slope, log_series, power_ratio
from .errors import (ConfigError, DegenerateSpecError, DomainError,
                     InvalidSpecError, PrecisionError)
from .reconstruct import StarState
from .tree import Interval

_GUARD_BITS = 32
DEFAULT_PRECISION_BITS = 128
#: Largest integer, in bits, that a power enclosure may make for
#: `power:p/q`: `p·bits(x^(1/q))` for an exact image, `p·bits(x) + q·s` for
#: a floor root at 2^-s.  Past it `PrecisionError`.
MAX_ROOT_BITS = 1 << 20
#: Largest `precision_bits`: the `mu_d` weights cost grows faster than
#: linearly in it (0.9 s for cantor3 depth 3 at 2^14 bits, 10 s at 2^16).
MAX_PRECISION_BITS = 1 << 14


def check_length_power(d: float | Fraction) -> Fraction:
    """The exponent d as the exact rational that `mu_d` splits by: a
    Fraction as given, a float as the nearest fraction with denominator at
    most 10^12.  `DomainError` unless d and that rational lie in (0, 1)."""
    if not 0 < d < 1:
        raise DomainError(f"length-power exponent d={float(d)} outside (0, 1)")
    r = d if isinstance(d, Fraction) else Fraction(d).limit_denominator(10**12)
    if not 0 < r < 1:
        raise DomainError(f"length-power exponent d={float(d)} rounds to {r} "
                          "at denominators up to 10^12, outside (0, 1)")
    return r


def check_precision_bits(bits: int) -> None:
    if bits < 1:
        raise DomainError(f"precision {bits} bits must be >= 1")
    if bits > MAX_PRECISION_BITS:
        raise DomainError(
            f"precision {bits} bits must be <= {MAX_PRECISION_BITS}")


def check_samples(samples: int) -> None:
    if samples < 1:
        raise DomainError(f"sample count {samples} must be >= 1")


# ---------------------------------------------------------------------------
# Integer roots
# ---------------------------------------------------------------------------

def _floor_root(n: int, q: int) -> int:
    """floor(n^(1/q)) for integers n >= 0 and q >= 1."""
    if q == 1 or n < 2:
        return n
    if q == 2:
        return math.isqrt(n)
    if n.bit_length() <= q:
        return 1
    # 2^t from floats, raised past its rounding error so the Newton steps
    # start above the root; from there they decrease to its floor
    t = math.log2(n) / q
    k = max(int(t) - 52, 0)
    x = (int(2.0 ** (t - k) * (1 + (t + 2) * 2.0 ** -48)) + 1) << k
    while True:
        y = ((q - 1) * x + n // x ** (q - 1)) // q
        if y >= x:
            return x
        x = y


def _iroot(n: int, q: int) -> int | None:
    """Exact integer q-th root of n >= 0, or None if n is not a q-th power."""
    r = _floor_root(n, q)
    return r if r ** q == n else None


# ---------------------------------------------------------------------------
# Map families
# ---------------------------------------------------------------------------

class QsMap:
    """Strictly increasing homeomorphism of the real line."""

    def float_eval(self, x: float) -> float:
        raise NotImplementedError

    def bounds(self, num: int, den: int, prec: int) -> tuple[int, int, int]:
        """The integer enclosure of f(num/den), for num/den reduced and
        den > 0: `(lo, hi, d)` with lo/d <= f(x) <= hi/d, d > 0 and not
        necessarily reduced; lo == hi exactly when f(x) is the exact
        rational.  Each family defines it: its one exact evaluator."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class IdentityMap(QsMap):
    def bounds(self, num, den, prec):
        return num, num, den

    def float_eval(self, x):
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

    def bounds(self, num, den, prec):
        (an, ad), (bn, bd) = (self.a.as_integer_ratio(),
                              self.b.as_integer_ratio())
        v = an * num * bd + bn * ad * den
        return v, v, ad * bd * den

    def float_eval(self, x):
        return float(self.a) * x + float(self.b)

    def describe(self):
        return f"affine({self.a},{self.b})"


@dataclass(frozen=True)
class PowerMap(QsMap):
    """x -> sign(x) |x|^a with a > 0."""
    a: Fraction

    def __post_init__(self):
        if self.a <= 0:
            raise InvalidSpecError(f"power exponent must be positive, got {self.a}")

    def float_eval(self, x):
        return math.copysign(abs(x) ** float(self.a), x) if x else 0.0

    def bounds(self, num, den, prec):
        """The exact image, or floor-root bounds at most
        `max(|x|^a, 1)·2^-prec` apart."""
        p, q = self.a.numerator, self.a.denominator
        n = abs(num)
        root = _iroot(n, q)
        if root is not None:
            droot = _iroot(den, q)
            if droot is not None:
                bits = p * max(root.bit_length(), droot.bit_length())
                if bits > MAX_ROOT_BITS:
                    raise PrecisionError(
                        f"power exponent {self.a} needs a {bits}-bit exact "
                        f"image; the cap is {MAX_ROOT_BITS} bits")
                v = root ** p if num >= 0 else -root ** p
                return v, v, droot ** p
        # s = prec - floor(log2 |v|) for |v| >= 1, from a lower bound on
        # log2 |v|, so the width 2^-s stays within max(|v|, 1)·2^-prec
        s = prec - max(p * (n.bit_length() - den.bit_length() - 1) // q, 0)
        bits = p * max(n.bit_length(), den.bit_length()) + q * abs(s)
        if bits > MAX_ROOT_BITS:
            raise PrecisionError(
                f"power exponent {self.a} needs a {bits}-bit integer root at "
                f"{prec} bits of precision; the cap is {MAX_ROOT_BITS} bits")
        n, den = n ** p, den ** p
        if s >= 0:
            n <<= q * s
        else:
            den <<= -q * s
        r = _floor_root(n // den, q)
        lo, hi, den = (r, r + 1, 1 << s) if s >= 0 else (r << -s, (r + 1) << -s, 1)
        return (lo, hi, den) if num > 0 else (-hi, -lo, den)

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

    def bounds(self, num, den, prec):
        x = Fraction(num, den)
        i = bisect_right(self.points, x, key=itemgetter(0)) - 1
        i = min(max(i, 0), len(self.slopes) - 1)
        x0, y0 = self.points[i]
        v = y0 + self.slopes[i] * (x - x0)
        return v.numerator, v.numerator, v.denominator

    def float_eval(self, x):
        # int true division rounds correctly
        lo, _, den = self.bounds(*x.as_integer_ratio(), 0)
        return lo / den

    def describe(self):
        pts = ";".join(f"{x},{y}" for x, y in self.points)
        return f"pl({pts})"


class CompositionMap(QsMap):
    """parts[0] applied first, then parts[1], and so on."""

    def __init__(self, parts: Sequence[QsMap]):
        if not parts:
            raise InvalidSpecError("empty composition")
        self.parts = list(parts)

    def float_eval(self, x):
        for p in self.parts:
            x = p.float_eval(x)
        return x

    def bounds(self, num, den, prec):
        # every part is increasing: lower bounds go through lower bounds and
        # upper through upper; inner parts carry guard bits
        lo, hi, lo_den, hi_den = num, num, den, den
        last = len(self.parts) - 1
        for i, part in enumerate(self.parts):
            bits = prec if i == last else prec + _GUARD_BITS
            g = math.gcd(lo, lo_den)
            if lo * hi_den == hi * lo_den:
                lo, hi, lo_den = part.bounds(lo // g, lo_den // g, bits)
                hi_den = lo_den
            else:
                h = math.gcd(hi, hi_den)
                lo, _, lo_den = part.bounds(lo // g, lo_den // g, bits)
                _, hi, hi_den = part.bounds(hi // h, hi_den // h, bits)
        return _over_one_den(lo, lo_den, hi, hi_den)

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

def _over_one_den(lo: int, lo_den: int, hi: int,
                  hi_den: int) -> tuple[int, int, int]:
    """lo/lo_den and hi/hi_den as two numerators over one denominator."""
    if lo_den == hi_den:
        return lo, hi, lo_den
    den = math.lcm(lo_den, hi_den)
    return lo * (den // lo_den), hi * (den // hi_den), den


class ImageBranch(Interval):
    """One image branch [lo_num/den, hi_num/den], its endpoint enclosures'
    integers over one unreduced denominator, with its parent's index and
    whether both endpoints are exact images."""
    __slots__ = ("parent", "exact")

    def __init__(self, lo_num: int, hi_num: int, den: int, parent: int,
                 exact: bool):
        super().__init__(lo_num, hi_num, den)
        self.parent = parent
        self.exact = exact


class ImageTree:
    def __init__(self, precision_bits: int, levels: list[list[ImageBranch]]):
        self.precision_bits = precision_bits
        self.levels = levels

    @property
    def m_max(self) -> int:
        return len(self.levels) - 1

    def hull(self) -> tuple[Fraction, Fraction]:
        top = self.levels[0][0]
        return top.lo, top.hi


def image_tree(fmap: QsMap, tree: BranchTree,
               precision_bits: int = DEFAULT_PRECISION_BITS) -> ImageTree:
    """Map every branch through fmap.  Each endpoint becomes its exact
    image or the certified integer enclosure `fmap.bounds` at
    `precision_bits` (for a power map at most `max(|v|, 1)·2^-precision_bits`
    wide); the branch spans the lower end of its lower endpoint to the upper
    end of its upper one, so it contains the true image, and holds the two
    numerators over one denominator (the enclosures' own when they share
    it, as they mostly do at one precision, else their lcm).  A power whose
    enclosure needs an integer root past `MAX_ROOT_BITS` raises
    `PrecisionError`, naming the exponent."""
    check_precision_bits(precision_bits)
    if tree.mode != "explicit":
        raise DomainError("image trees need an explicitly built branch hierarchy")
    # keyed by the endpoint reduced by one gcd, as `bounds` takes it
    cache: dict[tuple[int, int], tuple[int, int, int]] = {}
    bounds = fmap.bounds

    def enclose(num: int, den: int) -> tuple[int, int, int]:
        g = math.gcd(num, den)
        key = (num // g, den // g)
        box = cache.get(key)
        if box is None:
            box = cache[key] = bounds(*key, precision_bits)
        return box

    levels = []
    for m, branches in enumerate(tree.explicit):
        out = []
        for i, br in enumerate(branches):
            lo, lo_hi, lo_den = enclose(br.lo_num, br.den)
            hi_lo, hi, den = enclose(br.hi_num, br.den)
            if lo_hi * den >= hi_lo * lo_den and br.hi_num > br.lo_num:
                raise PrecisionError(
                    f"branch {i} at level {m} collapses at "
                    f"{precision_bits} bits; raise the precision")
            exact = lo == lo_hi and hi_lo == hi
            out.append(ImageBranch(*_over_one_den(lo, lo_den, hi, den),
                                   br.parent, exact))
        levels.append(out)
    return ImageTree(precision_bits, levels)


# ---------------------------------------------------------------------------
# Length-power measure on the image
# ---------------------------------------------------------------------------

class ImageMeasure:
    """Probability measure splitting each branch's mass among its children
    proportionally to the d-th power of their lengths.

    Each parent's sibling lengths are integers over one denominator (the
    branches' own when they share it), and their weights are integers
    (`_power_weights`): all 1 when the siblings are equal, exact integer
    roots when the length ratios have exact d-th powers, mpmath mantissas at
    `prec + 32` bits otherwise (their cost does not grow with the
    denominator of `d`).  A child's mass is the unreduced
    integer pair `(pn·w_i, pd·Σw)` of its parent's `(pn, pd)`, so sibling
    masses always sum exactly to the parent mass; `masses` reduces the pairs
    to `Fraction`s on first use.
    """

    def __init__(self, image: ImageTree, d: Fraction,
                 pairs: list[list[tuple[int, int]]]):
        self.image = image
        self.d = d
        self.pairs = pairs

    @cached_property
    def masses(self) -> list[list[Fraction]]:
        return [[Fraction(num, den) for num, den in level]
                for level in self.pairs]


def _power_weights(lengths: list[int], d: Fraction, prec: int) -> list[int]:
    """Integer weights proportional to `a^d` for the integer sibling lengths
    `a`: `r^p` for `d = p/q` when every length over the lengths' gcd is a
    q-th power `r^q` (exactly when every length ratio has an exact d-th
    power; all 1 for equal lengths); otherwise mpmath's round-to-nearest
    `a^d` at `prec + 32` bits, its mantissas shifted to the smallest exponent."""
    if min(lengths) <= 0:
        raise DegenerateSpecError("zero-length image branch; cannot weight by length")
    g = math.gcd(*lengths)
    lengths = [a // g for a in lengths]
    p, q = d.numerator, d.denominator
    roots = []
    for a in lengths:
        r = _iroot(a, q)
        if r is None:
            break
        roots.append(r ** p)
    else:
        return roots
    # the one floating-point path; kept off `import moranset`
    from mpmath.libmp import from_int, mpf_div, mpf_pow, round_nearest
    wp = prec + _GUARD_BITS
    dd = mpf_div(from_int(p), from_int(q), wp, round_nearest)
    powers = [mpf_pow(from_int(a, wp, round_nearest), dd, wp, round_nearest)
              for a in lengths]
    low = min(exp for _, _, exp, _ in powers)
    return [man << (exp - low) for _, man, exp, _ in powers]


def build_mu_d(image: ImageTree, d: float | Fraction) -> ImageMeasure:
    """The length-power measure: each parent's children are one contiguous
    run of the next image level (`image_tree` keeps the branch order), and
    the run splits the parent's mass by the d-th powers of their lengths.
    The lengths are the runs' `hi_num - lo_num` when the run shares one
    denominator, as it mostly does at one precision, and are put over the
    lcm of the denominators otherwise."""
    d = check_length_power(d)
    prec = image.precision_bits
    pairs: list[list[tuple[int, int]]] = [[(1, 1)]]
    for level in image.levels[1:]:
        parents = pairs[-1]
        out: list[tuple[int, int]] = []
        for parent, kids in groupby(level, key=attrgetter("parent")):
            kids = list(kids)
            den = kids[0].den
            lengths = [br.hi_num - br.lo_num for br in kids]
            if any(br.den != den for br in kids):
                den = math.lcm(*(br.den for br in kids))
                lengths = [a * (den // br.den) for a, br in zip(lengths, kids)]
            weights = _power_weights(lengths, d, prec)
            pn, pd = parents[parent]
            pd *= sum(weights)
            out.extend((pn * w, pd) for w in weights)
        pairs.append(out)
    return ImageMeasure(image, d, pairs)


@dataclass
class RatioSeries:
    levels: list[int]
    ratios: list[float]          # per level, max of mass / length^d
    growth_rate: float           # least-squares slope of log ratio per level

    def max_ratio(self) -> float:
        return max(self.ratios)


def _ratio_series(levels: list[int], ratio, d: float) -> RatioSeries:
    """The series `ratio(m)` over `levels` with its log-growth rate.  A
    level whose ratio is past float range raises `PrecisionError`."""
    ratios = []
    for m in levels:
        try:
            r = ratio(m)
        except OverflowError:
            r = math.inf
        if not 0 < r < math.inf:
            raise PrecisionError(
                f"level {m}: max mass / length^d at d={d} is past float range")
        ratios.append(r)
    return RatioSeries(levels, ratios,
                       fit_slope([float(m) for m in levels],
                                 [math.log(r) for r in ratios]))


def prop1_ratio_series(measure: ImageMeasure) -> RatioSeries:
    """Per-level max of mass / length^d over the image branches of levels
    1..`image.m_max`, with the log-growth rate; boundedness of this series
    is the audited claim."""
    image = measure.image
    d = float(measure.d)

    def ratio(m: int) -> float:
        return max(power_ratio(num, den, br.hi_num - br.lo_num, br.den, d)
                   for br, (num, den) in zip(image.levels[m], measure.pairs[m]))
    return _ratio_series(list(range(1, image.m_max + 1)), ratio, d)


def prop1_ratio_series_uniform(star: StarState, d: float, K: int) -> RatioSeries:
    """Closed form of the ratio series for the identity map on a construction
    whose siblings all share one length: every level-k branch then carries
    mass 1/(interval count), so the max ratio is count^-1 * length^-d.  It
    is the `mu_d` series of the branch hierarchy only when every stage
    refines in one step, so that branch levels are construction levels."""
    check_length_power(d)
    logs = list(log_series(star, K))

    def ratio(k: int) -> float:
        log_count, log_len = logs[k - 1]
        return math.exp(-log_count - d * log_len)
    return _ratio_series(list(range(1, K + 1)), ratio, d)


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
            def at(series, idx):
                return float(series[idx]) if 0 <= idx < len(series) else ""
            yield (m,
                   at(self.beta, m), at(self.theta, m), at(self.chi, m - 1),
                   at(self.kappa, m),
                   at(self.lambda_star, m - 1), at(self.lambda_under, m - 1),
                   at(self.gamma_star, m - 1), at(self.gamma_under, m - 1),
                   float(self.l_T[m]))


def stats_series(tree: BranchTree, m_top: int | None = None) -> QsStats:
    """Exact statistic series through level m_top (default: one below the
    built depth so the refinement at the top level is observable).

    beta, theta, kappa at level m and chi at level m+1 come from one pass
    over `tree.families(m)`, each parent's children being one contiguous
    run of level m+1."""
    if m_top is None:
        m_top = tree.m_max - 1
    if m_top < 1:
        raise DomainError(f"m_max = {m_top + 1} is out of range: refinement "
                          "statistics need m_max >= 2")
    beta, theta, kappa, chi = [], [], [], []
    stage, star_gaps = 0, []
    for m in range(m_top):
        families = tree.families(m)     # range-checks m before any stage lookup
        k = tree.schedule.stage_of(m + 1)
        if k != stage:
            # the trimmed gaps of the stage whose intervals level m+1 spans
            nodes = tree.stages[k]
            stage = k
            star_gaps = [nxt.lo - prev.hi for prev, nxt in zip(nodes, nodes[1:])]
        b, t, kp, c = [], [], [], []
        for br, kids in families:
            gaps = [kids[0].lo - br.lo, br.hi - kids[-1].hi]
            gaps += [nxt.lo - prev.hi for prev, nxt in zip(kids, kids[1:])]
            lengths = [kid.length for kid in kids]
            b.append(max(gaps) / br.length)
            t.append(sum(lengths) / br.length)
            c.append(max(lengths) / br.length)
            inner = star_gaps[kids[0].a:kids[-1].b - 1]
            if inner:
                kp.append(min(inner) / br.length)
        beta.append(max(b))
        theta.append(min(t))
        kappa.append(min(kp, default=None))
        chi.append(max(c))
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
    return QsStats(m_top, beta, theta, kappa, chi,
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


def sandwich_audit(fmap: QsMap,
                   domain: tuple[float | Fraction, float | Fraction],
                   samples: int, seed: int) -> SandwichFit:
    """Empirical envelope exponents over sampled nested interval pairs
    I' inside I: the largest p and smallest q with
    lam * r^q <= |f(I')| / |f(I)| <= 4 * r^p, r = |I'|/|I|, lam = 1.
    The pairs and their images are floats: a domain or a sampled image
    past float range raises `PrecisionError`, naming the map."""
    check_samples(samples)
    try:
        lo, hi = float(domain[0]), float(domain[1])
    except OverflowError:
        raise PrecisionError(f"map {fmap.describe()}: the sandwich audit's "
                             "domain lies past float range") from None
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
        try:
            fl = fmap.float_eval(b) - fmap.float_eval(a)
            fs = fmap.float_eval(v) - fmap.float_eval(u)
        except OverflowError:
            fl = fs = math.inf
        if fl <= 0 or fs <= 0:
            continue
        s = fs / fl
        if not 0 < s < math.inf:
            raise PrecisionError(
                f"map {fmap.describe()}: the sandwich audit's float images "
                f"over [{a!r}, {b!r}] lie past float range")
        n += 1
        q_fit = max(q_fit, math.log(s) / math.log(r))
        p_fit = min(p_fit, math.log(s / 4.0) / math.log(r))
    if n == 0:
        raise DomainError("no valid nested pairs sampled")
    return SandwichFit(min(p_fit, 1.0), q_fit, 1.0, n)

