"""Uniform-branching mass distribution and Frostman-type window audits.

The measure gives every trimmed level-k interval mass 1/(n_1...n_k); window
measures are exact rationals computed by descent.  The audits check that
mu(U) <= C |U|^t for windows U in the per-level size regime, with C the
constant tied to whichever dimension condition holds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .dimension import (ConditionCert, check_conditions, dim_formula_seq,
                        log_series)
from .errors import (BudgetExceededError, ConditionInapplicableError,
                     DomainError, RegimeError)
from .reconstruct import StarState
from .specs import format_rational
from .tree import Node, children_of, root

#: Cap on exhaustively enumerated windows per audited level.
DEFAULT_WINDOW_BUDGET = 10**6

_SAMPLE_SPAN = 2**30


class MassMeasure:
    """The probability measure splitting each interval's mass equally among
    its children, evaluated on the trimmed hierarchy."""

    def __init__(self, star: StarState):
        self.star = star
        self.spec = star.spec


def mu_window(measure: MassMeasure, U: tuple[Fraction, Fraction],
              k: int) -> Fraction:
    """Exact mass of the closed window U at resolution depth k: the fraction
    of trimmed level-k intervals meeting U, counting whole contained subtrees
    at their level and descending only through boundary overlaps."""
    a, b = Fraction(U[0]), Fraction(U[1])
    if a > b:
        raise DomainError(f"window [{a}, {b}] is empty")
    spec, star = measure.spec, measure.star

    def descend(node: Node, j: int) -> Fraction:
        s = star.trim(node, j)
        if s.hi < a or s.lo > b:
            return Fraction(0)
        if j == k or (a <= s.lo and s.hi <= b):
            return Fraction(1, spec.count(j))
        return sum(descend(c, j + 1) for c in children_of(spec, node, j + 1))

    return descend(root(spec), 0)


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


def _window_endpoints(star: StarState, k: int) -> list[Fraction]:
    pts = []
    for node in star.iter_level(k):
        pts.append(node.lo)
        pts.append(node.hi)
    return pts


def _ratio(mu: Fraction, width: Fraction, t: float) -> float:
    if mu == 0 or width == 0:
        return 0.0
    return float(mu) / float(width) ** t


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
    if mode == "sampled" and samples < 1:
        raise DomainError(f"sample count {samples} must be >= 1 in sampled mode")
    star = measure.star
    spec = measure.spec
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

    worst = -1.0
    witness = None
    total = 0
    levels = list(range(k_lo, k_hi + 1))
    if mode == "exhaustive":
        # every level's budget is checked before any window is measured
        endpoints = {}
        for k in levels:
            pts = sorted(set(_window_endpoints(star, k + 1)))
            m = len(pts)
            if m * (m - 1) // 2 > window_budget:
                raise BudgetExceededError(
                    f"level {k} exhaustive audit needs {m * (m - 1) // 2} "
                    f"windows (> budget {window_budget})")
            endpoints[k] = pts

    def audit_level(k: int):
        nonlocal_best = (-1.0, None, 0)
        lo_w = star.delta_star(k + 1)
        hi_w = star.delta_star(k)
        if mode == "exhaustive":
            pts = endpoints[k]
            m = len(pts)
            best, wit, cnt = nonlocal_best
            for i in range(m):
                for j in range(i + 1, m):
                    width = pts[j] - pts[i]
                    if width < lo_w or width >= hi_w:
                        continue
                    cnt += 1
                    mu = mu_window(measure, (pts[i], pts[j]), k + 1)
                    r = _ratio(mu, width, t)
                    if r > best:
                        best, wit = r, (pts[i], pts[j], k)
            return best, wit, cnt
        if mode == "sampled":
            rng = random.Random(f"{seed}|{k}")
            hull_lo = spec.interval[0]
            hull_hi = spec.interval[1]
            best, wit, cnt = nonlocal_best
            for _ in range(samples):
                u = Fraction(rng.randrange(_SAMPLE_SPAN), _SAMPLE_SPAN)
                width = lo_w + (hi_w - lo_w) * u
                span = hull_hi - hull_lo - width
                v = Fraction(rng.randrange(_SAMPLE_SPAN), _SAMPLE_SPAN)
                a = hull_lo + span * v
                cnt += 1
                mu = mu_window(measure, (a, a + width), k + 1)
                r = _ratio(mu, width, t)
                if r > best:
                    best, wit = r, (a, a + width, k)
            return best, wit, cnt
        raise DomainError(f"unknown audit mode {mode!r}")

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(audit_level, levels))
    else:
        results = [audit_level(k) for k in levels]
    # deterministic reduction in level order; strict > keeps the first
    # (leftmost, lowest-level) witness among ties
    for best, wit, cnt in results:
        total += cnt
        if best > worst:
            worst, witness = best, wit
    return WindowAudit(t, condition, constant, k0, (k_lo, k_hi),
                       max(worst, 0.0), witness, total, mode)
