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
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import ConditionInapplicableError, DomainError, PrecisionError
from .reconstruct import StarState, first_reconstruct
from .specs import MoranSpec, format_rational
from .tree import Interval, level_stats, stats_parents


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
    return math.exp(log_fraction(Fraction(num, den))
                    - t * log_fraction(Fraction(wnum, wden)))


@dataclass
class DimSeries:
    """The per-level dimension formula values s_k and a tail-minimum proxy.

    The limiting quantity is an infinite lim-inf; this reports the finite
    series plus the minimum over the trailing half-window and never claims
    a limit.
    """
    s: list[float]          # s[i] is the level-(i+1) value
    tail_min: float         # minimum over levels K // 2..K

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
    """s_k = log(n_1...n_k) / -log(delta*_k / |I|) for k = 1..K: the trimmed
    level length over the initial interval's, so the series does not
    depend on the scale of the initial interval."""
    star = first_reconstruct(spec, K)
    unit = spec.interval[1] - spec.interval[0]
    s = []
    for k, (log_count, _) in enumerate(log_series(star, K), start=1):
        dk = star.delta_star(k)
        if dk >= unit:
            raise DomainError(
                f"trimmed length {dk} at level {k} does not contract below "
                f"the initial interval length {unit}")
        s.append(log_count / -log_fraction(dk / unit))
    return DimSeries(s, min(s[max(1, K // 2) - 1:]))


@dataclass
class ConditionCert:
    """Smallest constants certifying each dimension condition on levels 1..K.

    omega1: gap comparability   (max gap <= omega1 * min gap)
    omega2: gap/contraction cap (max gap <= omega2 * c_1...c_k)
    omega3: gap floor           (n_k * min gap >= omega3 * c_1...c_{k-1})
    Each is exact, with the level witnessing tightness; `omega` reads them.
    """
    K: int
    omega1: Fraction | None
    omega1_witness: int | None
    omega2: Fraction
    omega2_witness: int
    omega3: Fraction
    omega3_witness: int

    def omega(self, condition: str) -> Fraction:
        """The certified constant of condition A, B or C.  A zero interior
        gap leaves omega1 None and omega3 0, so A and C certify nothing."""
        if condition not in ("A", "B", "C"):
            raise DomainError(f"unknown condition {condition!r}")
        if condition != "B" and self.omega1 is None:
            raise ConditionInapplicableError(
                f"condition {condition} is inapplicable (a level has a zero "
                f"interior gap)")
        return {"A": self.omega1, "B": self.omega2, "C": self.omega3}[condition]

    def applies(self, condition: str) -> bool:
        try:
            self.omega(condition)
        except ConditionInapplicableError:
            return False
        return True

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
            "applicable": {c: self.applies(c) for c in "ABC"},
        }


def check_conditions(spec: MoranSpec, K: int) -> ConditionCert:
    """Exact certificates over levels 1..K, with tightness witnesses.

    Each level gives one row (k, r1, r2, r3) of the three ratios, r1 None
    where the level's smallest gap is zero; each omega is the extreme of its
    column, the first level winning ties, and omega1 is None when any row's
    r1 is."""
    if K < 1:
        raise DomainError(f"depth {K} is out of range: certificates need depth >= 1")
    unit = spec.interval[1] - spec.interval[0]
    # counts never shrink, so the deepest level's parents pass the node
    # budget first: check them before any level's gaps are drawn
    stats_parents(spec, K)
    rows = []
    for k in range(1, K + 1):
        st = level_stats(spec, k)
        # r2 and r3 over the contractions c_1...c_k and c_1...c_{k-1}
        rows.append((k, st.max_gap / st.min_gap if st.min_gap else None,
                     st.max_gap / (spec.delta(k) / unit),
                     spec.n(k) * st.min_gap / (spec.delta(k - 1) / unit)))

    def extreme(pick, i):
        row = pick(rows, key=itemgetter(i))
        return row[i], row[0]

    omega1 = (None, None) if any(row[1] is None for row in rows) else extreme(max, 1)
    return ConditionCert(K, *omega1, *extreme(max, 2), *extreme(min, 3))


# ---------------------------------------------------------------------------
# Canonical cover sums
# ---------------------------------------------------------------------------

def cover_sum(star: StarState, t: float, K: int) -> list[float]:
    """Per level k = 1..K: (number of trimmed intervals) * (trimmed length)^t,
    the t-sum of the canonical trimmed cover.  A sum outside the positive
    floats raises `PrecisionError`, naming the level and t."""
    if not 0 < t <= 1:
        raise DomainError(f"cover exponent t={t} outside (0, 1]")
    sums = []
    for k, (log_count, log_len) in enumerate(log_series(star, K), start=1):
        try:
            total = math.exp(log_count + t * log_len)
        except OverflowError:
            total = math.inf
        if not 0 < total < math.inf:
            raise PrecisionError(f"level {k}: the cover sum N_k delta*_k^t at "
                                 f"t={t} is outside float range")
        sums.append(total)
    return sums


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
    An interval walks the widths finest first and stops at the first one
    where it ends in or before the last counted cell, if every coarser
    width is a multiple of that one: it then ends at or before that cell's
    right edge, an edge of every coarser grid, whose cell to the left was
    counted with it, so it meets no new coarser cell either.  The counts
    come in the caller's order of widths.
    """
    eps_list = [Fraction(e) for e in epsilons]
    if not eps_list or any(e <= 0 for e in eps_list):
        raise DomainError("cell widths must be positive")
    order = sorted(range(len(eps_list)), key=eps_list.__getitem__)
    widths = [eps_list[i] for i in order]
    # x / eps = x * p / q with p, q > 0, so over a common denominator d a
    # cell index is an integer floor division by d * q, whose divisors are
    # remade only when d changes (once per run of a level's nodes)
    grid = [(e.denominator, e.numerator,
             all((w / e).denominator == 1 for w in widths[i + 1:]))
            for i, e in enumerate(widths)]
    counts = [0] * len(widths)
    last = [None] * len(widths)
    den, cells = None, []
    for item in intervals:
        lo_num, hi_num, d = item.lo_num, item.hi_num, item.den
        if d != den:
            den, cells = d, [(p, d * q, stop) for p, q, stop in grid]
        for i, (p, dq, stop) in enumerate(cells):
            # cells j with j*eps < hi and (j+1)*eps > lo:
            # floor(lo/eps) <= j <= ceil(hi/eps) - 1
            j_lo = (lo_num * p) // dq
            j_hi = -((-hi_num * p) // dq) - 1
            if last[i] is not None:
                if j_hi <= last[i]:
                    if stop:
                        break
                    continue
                j_lo = max(j_lo, last[i] + 1)
            if j_hi >= j_lo:
                counts[i] += j_hi - j_lo + 1
                last[i] = j_hi
    if den is None:
        raise DomainError("empty interval list")
    counts = [c for _, c in sorted(zip(order, counts))]
    for e, c in zip(eps_list, counts):
        if not c:
            raise DomainError(f"cell width {e} counts no cell; the slope fit "
                              "needs at least one at every width")
    xs = [-log_fraction(e) for e in eps_list]
    ys = [math.log(c) for c in counts]
    return BoxCountResult(eps_list, counts, fit_slope(xs, ys))
