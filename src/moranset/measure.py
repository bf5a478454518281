"""Uniform-branching mass distribution and Frostman-type window audits.

The measure gives every trimmed level-k interval mass 1/(n_1...n_k).  The
trimmed level is sorted, so the exact mass of a closed window [a, b] is a
difference of two ranks, (#{lo <= b} - #{hi < a}) / N_k.  The audits check
that mu(U) <= C |U|^t for windows U in the per-level size regime, with C the
constant tied to whichever dimension condition holds.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .dimension import (ConditionCert, check_conditions, dim_formula_seq,
                        log_series, power_ratio)
from .errors import (BudgetExceededError, ConditionInapplicableError,
                     DomainError, RegimeError)
from .reconstruct import StarState
from .specs import MoranSpec, format_rational

#: Cap on exhaustively enumerated windows per audited level.
DEFAULT_WINDOW_BUDGET = 10**6

_SAMPLE_SPAN = 2**30


class MassMeasure:
    """The probability measure splitting each interval's mass equally among
    its children, evaluated on the trimmed hierarchy."""

    def __init__(self, star: StarState):
        self.star = star
        self.spec = star.spec


def _rank(spec: MoranSpec, k: int, y: Fraction, find) -> int:
    """`find(xs, y)` (`bisect_right` or `bisect_left`) for the sorted list xs
    of untrimmed level-k left endpoints measured from the initial lo, by one
    root-to-leaf path carrying y - lo as integers rn / rd.  An offset num /
    den is <= y - lo iff num <= floor(rn den / rd), and < y - lo iff num <
    ceil(rn den / rd); the children left of the one holding y at level j
    add N_k / N_j each."""
    def scaled(den: int) -> int:       # floor, or ceil for bisect_left
        return -(-rn * den // rd) if find is bisect_left else rn * den // rd

    rn, rd, sigma, rank = y.numerator, y.denominator, (), 0
    for j in range(1, k + 1):
        den, nums = spec.child_offsets(sigma, j)
        i = find(nums, scaled(den))
        if i == 0:
            return rank
        rank += (i - 1) * (spec.count(k) // spec.count(j))
        m = math.lcm(rd, den)
        rn, rd = rn * (m // rd) - nums[i - 1] * (m // den), m
        sigma += (i,)
    return rank + find((0,), scaled(1))


def mu_window(measure: MassMeasure, U: tuple[Fraction, Fraction],
              k: int) -> Fraction:
    """Exact mass of the closed window U = [a, b] at resolution depth k, the
    fraction of trimmed level-k intervals meeting U: (#{lo <= b} - #{hi < a})
    / N_k, each count one rank descent, so any depth works."""
    a, b = Fraction(U[0]), Fraction(U[1])
    if a > b:
        raise DomainError(f"window [{a}, {b}] is empty")
    spec = measure.spec
    lo = spec.interval[0]
    # a trimmed interval [x + L_{k+1}, x + delta_k - R_{k+1}] with untrimmed
    # left endpoint x starts at or before b, or ends before a
    starts = _rank(spec, k, b - spec.L(k + 1) - lo, bisect_right)
    ends = _rank(spec, k, a + spec.R(k + 1) - spec.delta(k) - lo, bisect_left)
    return Fraction(starts - ends, spec.count(k))


# ---------------------------------------------------------------------------
# Frostman-type audits
# ---------------------------------------------------------------------------

def bound_constant(cert: ConditionCert, condition: str) -> Fraction:
    """The per-condition Frostman constant."""
    if condition == "A":
        if not cert.condition_a_applicable:
            raise ConditionInapplicableError(
                "condition A certificate is inapplicable (zero interior gap)")
        return 32 * cert.omega1
    if condition == "B":
        return 32 * (4 * cert.omega2 + 1)
    if condition == "C":
        return 8 * max(Fraction(1), 1 / cert.omega3)
    raise DomainError(f"unknown condition {condition!r}")


@dataclass
class WindowAudit:
    t: float
    condition: str
    constant: Fraction
    k0: int
    k_range: tuple[int, int]
    worst_ratio: float
    witness: tuple[Fraction, Fraction, int] | None
    windows: int
    mode: str

    @property
    def passed(self) -> bool:
        return self.worst_ratio <= float(self.constant)

    def to_dict(self) -> dict:
        a, b, k = self.witness if self.witness else (None, None, None)
        return {
            "t": self.t,
            "condition": self.condition,
            "k0": self.k0,
            "constant": format_rational(self.constant),
            "constant_float": float(self.constant),
            "worst_ratio": self.worst_ratio,
            "witness": {"a": None if a is None else format_rational(a),
                        "b": None if b is None else format_rational(b),
                        "k": k},
            "windows": self.windows,
            "mode": self.mode,
            "passed": self.passed,
        }


def threshold_level(star: StarState, t: float, k_max: int) -> int:
    """Smallest k with (interval count at k) * (trimmed length at k)^t > 1."""
    for k, (log_count, log_len) in enumerate(log_series(star, k_max), start=1):
        if log_count + t * log_len > 0:
            return k
    raise RegimeError(
        f"no level k <= {k_max} has interval-count * length^t above 1 "
        f"for t = {t}")


def frostman_audit(measure: MassMeasure, condition: str, t: float,
                   k_range: tuple[int, int], mode: str = "exhaustive",
                   cert: ConditionCert | None = None,
                   samples: int = 2000, seed: int = 0,
                   window_budget: int = DEFAULT_WINDOW_BUDGET,
                   threads: int = 1) -> WindowAudit:
    """Audit mu(U) <= C |U|^t over windows with trimmed-(k+1) length <= |U|
    < trimmed-k length, for k in k_range (clamped below by the threshold
    level).  Exhaustive mode sweeps all windows spanned by pairs of
    depth-(k+1) trimmed-interval endpoints in that size regime, where the
    ratio is locally maximized; sampled mode draws seeded random windows.
    """
    if not t > 0:
        raise DomainError(f"Frostman exponent t={t} must be positive")
    if threads < 1:
        raise DomainError(f"thread count {threads} must be >= 1")
    if mode not in ("exhaustive", "sampled"):
        raise DomainError(f"unknown audit mode {mode!r}")
    if mode == "sampled" and samples < 1:
        raise DomainError(f"sample count {samples} must be >= 1 in sampled mode")
    star, spec = measure.star, measure.spec
    k_lo, k_hi = k_range
    if k_lo < 1 or k_hi < k_lo:
        raise DomainError(f"bad level range {k_range}")
    series = dim_formula_seq(spec, k_hi + 1)
    if t >= series.tail_min:
        raise RegimeError(
            f"t = {t} is not below the trailing dimension-series minimum "
            f"{series.tail_min:.6f}; the bound is not claimed there")
    if cert is None:
        cert = check_conditions(spec, k_hi + 1)
    constant = bound_constant(cert, condition)
    k0 = threshold_level(star, t, k_hi)
    k_lo = max(k_lo, k0)
    if k_lo > k_hi:
        raise RegimeError(
            f"threshold level {k0} exceeds the top of the range {k_hi}")

    levels = list(range(k_lo, k_hi + 1))
    if mode == "exhaustive":
        # every level's budget is checked before any window is measured; a
        # window [pts[i], pts[j]] then has mass (starts[j] - ends[i]) / N
        sweeps = {}
        for k in levels:
            los, his = zip(*((n.lo, n.hi) for n in star.iter_level(k + 1)))
            pts = sorted(set(los + his))
            m = len(pts)
            if m * (m - 1) // 2 > window_budget:
                raise BudgetExceededError(
                    f"level {k} exhaustive audit needs {m * (m - 1) // 2} "
                    f"windows (> budget {window_budget})")
            starts = [bisect_right(los, p) for p in pts]
            ends = [bisect_left(his, p) for p in pts]
            sweeps[k] = pts, starts, ends, len(los)

    def windows(k: int):
        """(a, b, mass) of each audited level-k window, in audit order."""
        lo_w = star.delta_star(k + 1)
        hi_w = star.delta_star(k)
        if mode == "exhaustive":
            pts, starts, ends, count = sweeps[k]
            for i, a in enumerate(pts):
                for j in range(bisect_left(pts, a + lo_w), len(pts)):
                    if pts[j] - a >= hi_w:
                        break
                    yield a, pts[j], Fraction(starts[j] - ends[i], count)
        else:
            rng = random.Random(f"{seed}|{k}")
            hull_lo, hull_hi = spec.interval
            for _ in range(samples):
                u = Fraction(rng.randrange(_SAMPLE_SPAN), _SAMPLE_SPAN)
                width = lo_w + (hi_w - lo_w) * u
                span = hull_hi - hull_lo - width
                v = Fraction(rng.randrange(_SAMPLE_SPAN), _SAMPLE_SPAN)
                a = hull_lo + span * v
                yield a, a + width, mu_window(measure, (a, a + width), k + 1)

    def audit_level(k: int):
        best, wit, cnt = -1.0, None, 0
        for a, b, mu in windows(k):
            cnt += 1
            width = b - a
            r = power_ratio(mu.numerator, mu.denominator,
                            width.numerator, width.denominator, t)
            if r > best:
                best, wit = r, (a, b, k)
        return best, wit, cnt

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(audit_level, levels))
    else:
        results = [audit_level(k) for k in levels]
    # deterministic reduction in level order; max keeps the first
    # (leftmost, lowest-level) witness among ties
    worst, witness, _ = max(results, key=lambda result: result[0])
    total = sum(cnt for _, _, cnt in results)
    return WindowAudit(t, condition, constant, k0, (k_lo, k_hi),
                       max(worst, 0.0), witness, total, mode)
