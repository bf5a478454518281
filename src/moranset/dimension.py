"""Dimension formula series, condition certificates, cover sums, box counting.

The formula series uses exact rationals everywhere except the final
logarithms; condition certificates are exact rationals with witness levels,
since they feed integer threshold selection downstream.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import DomainError
from .reconstruct import StarState, first_reconstruct
from .specs import MoranSpec, format_rational
from .tree import Interval, level_stats


def log_fraction(x: Fraction) -> float:
    """log of a positive rational, exact integer logs subtracted (handles
    numerators/denominators far beyond float range)."""
    if x <= 0:
        raise DomainError(f"log of non-positive rational {x}")
    return math.log(x.numerator) - math.log(x.denominator)


def power_ratio(num: int, den: int, wnum: int, wden: int, t: float) -> float:
    """(num/den) / (wnum/wden)^t for integers num, wnum >= 0 and den,
    wden > 0, reduced or not; 0.0 when either numerator is 0.  Int true
    division rounds correctly, so normal floats give the bytes of
    `float(mu) / float(w) ** t`; where a float would not be normal the ratio
    comes from the logs of the two rationals reduced to lowest terms, so it
    depends on their values, not on how they are written.  A ratio past
    float range raises OverflowError."""
    if num == 0 or wnum == 0:
        return 0.0
    try:
        mu, w = num / den, (wnum / wden) ** t
        if min(mu, w) >= sys.float_info.min:
            return mu / w
    except OverflowError:
        pass
    g, h = math.gcd(num, den), math.gcd(wnum, wden)
    num, den, wnum, wden = num // g, den // g, wnum // h, wden // h
    return math.exp(math.log(num) - math.log(den)
                    - t * (math.log(wnum) - math.log(wden)))


@dataclass
class DimSeries:
    """The per-level dimension formula values s_k and a tail-minimum proxy.

    The limiting quantity is an infinite lim-inf; this reports the finite
    series plus the minimum over the trailing half-window and never claims
    a limit.
    """
    K: int
    s: list[float]          # s[i] is the level-(i+1) value
    tail_start: int         # first level of the trailing window
    tail_min: float

    def value(self, k: int) -> float:
        return self.s[k - 1]


def log_series(star: StarState, K: int) -> Iterator[tuple[float, float]]:
    """(log N_k, log delta*_k) for k = 1..K, the two logarithms behind the
    dimension formula, cover sums and threshold levels.

    log N_k accumulates log n_1 + ... + log n_k in level order, so every
    caller sees the same floats.
    """
    if K < 1:
        raise DomainError(f"depth {K} is out of range: the series needs depth >= 1")
    log_count = 0.0
    for k in range(1, K + 1):
        log_count += math.log(star.spec.n(k))
        yield log_count, log_fraction(star.delta_star(k))


def fit_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ys against xs."""
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    sxx = sum((x - xbar) ** 2 for x in xs)
    if sxx == 0:
        raise DomainError("need at least two distinct abscissae for a slope fit")
    return sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sxx


def dim_formula_seq(spec: MoranSpec, K: int) -> DimSeries:
    """s_k = log(n_1...n_k) / -log(trimmed level length) for k = 1..K."""
    star = first_reconstruct(spec, K)
    unit = spec.interval[1] - spec.interval[0]
    s = []
    for k, (log_count, log_len) in enumerate(log_series(star, K), start=1):
        dk = star.delta_star(k)
        if dk >= unit:
            raise DomainError(
                f"trimmed length {dk} at level {k} does not contract below "
                f"the initial interval length {unit}")
        s.append(log_count / -log_len)
    tail_start = max(1, K // 2)
    return DimSeries(K, s, tail_start, min(s[tail_start - 1:]))


@dataclass
class ConditionCert:
    """Smallest constants certifying each dimension condition on levels 1..K.

    omega1: gap comparability   (max gap <= omega1 * min gap)
    omega2: gap/contraction cap (max gap <= omega2 * c_1...c_k)
    omega3: gap floor           (n_k * min gap >= omega3 * c_1...c_{k-1})
    Each is exact, with the level witnessing tightness; omega1 is
    inapplicable when some level has a zero interior gap.
    """
    K: int
    omega1: Fraction | None
    omega1_witness: int | None
    omega2: Fraction
    omega2_witness: int
    omega3: Fraction
    omega3_witness: int

    @property
    def condition_a_applicable(self) -> bool:
        return self.omega1 is not None

    def omega(self, condition: str) -> Fraction | None:
        if condition == "A":
            return self.omega1
        if condition == "B":
            return self.omega2
        if condition == "C":
            return self.omega3
        raise DomainError(f"unknown condition {condition!r}")

    def to_dict(self) -> dict:
        def fmt(x):
            return None if x is None else format_rational(x)
        return {
            "depth": self.K,
            "omega1": fmt(self.omega1),
            "omega2": fmt(self.omega2),
            "omega3": fmt(self.omega3),
            "witnesses": {"omega1": self.omega1_witness,
                          "omega2": self.omega2_witness,
                          "omega3": self.omega3_witness},
            "applicable": {"A": self.condition_a_applicable, "B": True, "C": True},
        }


def check_conditions(spec: MoranSpec, K: int) -> ConditionCert:
    """Exact certificates over levels 1..K, with tightness witnesses."""
    if K < 1:
        raise DomainError(f"depth {K} is out of range: certificates need depth >= 1")
    omega1 = omega2 = omega3 = None
    w1 = w2 = w3 = None
    zero_gap = False
    unit = spec.interval[1] - spec.interval[0]
    for k in range(1, K + 1):
        st = level_stats(spec, k)
        contraction = spec.delta(k) / unit          # c_1 c_2 ... c_k
        if st.min_gap == 0:
            zero_gap = True
        elif not zero_gap:
            r1 = st.max_gap / st.min_gap
            if omega1 is None or r1 > omega1:
                omega1, w1 = r1, k
        r2 = st.max_gap / contraction
        if omega2 is None or r2 > omega2:
            omega2, w2 = r2, k
        parent_contraction = spec.delta(k - 1) / unit
        r3 = spec.n(k) * st.min_gap / parent_contraction
        if omega3 is None or r3 < omega3:
            omega3, w3 = r3, k
    if zero_gap:
        omega1, w1 = None, None
    return ConditionCert(K, omega1, w1, omega2, w2, omega3, w3)


# ---------------------------------------------------------------------------
# Canonical cover sums
# ---------------------------------------------------------------------------

def cover_sum(star: StarState, t: float, K: int) -> list[float]:
    """Per level k = 1..K: (number of trimmed intervals) * (trimmed length)^t,
    the t-sum of the canonical trimmed cover."""
    if not 0 < t <= 1:
        raise DomainError(f"cover exponent t={t} outside (0, 1]")
    return [math.exp(log_count + t * log_len)
            for log_count, log_len in log_series(star, K)]


# ---------------------------------------------------------------------------
# Box counting
# ---------------------------------------------------------------------------

@dataclass
class BoxCountResult:
    epsilons: list[Fraction]
    counts: list[int]
    slope: float


def box_count(intervals: Iterable[Interval],
              epsilons: Sequence[Fraction]) -> BoxCountResult:
    """Count grid cells meeting the union of sorted disjoint-interior
    intervals, for each cell width, then fit log N against log(1/eps).

    Each interval is a `tree.Interval` record (a level's `Node`s), whose
    integer numerators and denominator are read as they are.  Cells are
    walked per interval with a running high-water index per width, so each
    cell is counted once; no point sampling, all index arithmetic is exact.
    """
    eps_list = [Fraction(e) for e in epsilons]
    if not eps_list or any(e <= 0 for e in eps_list):
        raise DomainError("cell widths must be positive")
    # x / eps = x * p / q with p, q > 0, so over a common denominator d a
    # cell index is an integer floor division by d * q, whose divisors are
    # remade only when d changes (once per run of a level's nodes)
    grid = [(e.denominator, e.numerator) for e in eps_list]
    counts = [0] * len(eps_list)
    last = [None] * len(eps_list)
    den, cells = None, []
    for item in intervals:
        lo_num, hi_num, d = item.lo_num, item.hi_num, item.den
        if d != den:
            den, cells = d, [(p, d * q) for p, q in grid]
        for i, (p, dq) in enumerate(cells):
            # cells j with j*eps < hi and (j+1)*eps > lo:
            # floor(lo/eps) <= j <= ceil(hi/eps) - 1
            j_lo = (lo_num * p) // dq
            j_hi = -((-hi_num * p) // dq) - 1
            if last[i] is not None:
                j_lo = max(j_lo, last[i] + 1)
            if j_hi >= j_lo:
                counts[i] += j_hi - j_lo + 1
                last[i] = j_hi
    if den is None:
        raise DomainError("empty interval list")
    xs = [-log_fraction(e) for e in eps_list]
    ys = [math.log(c) for c in counts]
    return BoxCountResult(eps_list, counts, fit_slope(xs, ys))
