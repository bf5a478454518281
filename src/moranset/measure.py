"""Uniform-branching mass distribution and Frostman-type window audits.

The measure gives every trimmed level-k interval mass 1/(n_1...n_k).  The
trimmed level is sorted, so a closed window [a, b] has the exact mass
(#{lo <= b} - #{hi < a}) / N_k, two `StarState.rank` counts; the sampled
audit ranks a chunk of windows' ends in one call per end.  The audits check
that mu(U) <= C |U|^t for windows U in the per-level size regime, with C the
constant tied to whichever dimension condition holds.  An audited level's
windows and masses are integers over one denominator per level, in both
modes; only the reported witness becomes a `Fraction`.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import sub

from .dimension import (ConditionCert, check_conditions, dim_formula_seq,
                        log_series, power_ratio)
from .errors import BudgetExceededError, DomainError, RegimeError
from .reconstruct import StarState
from .specs import format_rational

#: Cap on exhaustively enumerated windows per audited level.
DEFAULT_WINDOW_BUDGET = 10**6

_SAMPLE_BITS = 30
_SAMPLE_SPAN = 1 << _SAMPLE_BITS
#: Sampled windows drawn and ranked per batch, so a sampled audit's memory
#: does not grow with its sample count: under tracemalloc the `audit`
#: benchmark's sampled job peaks at 0.14 MB with 2**8 and 0.35 MB with 2**10.
_CHUNK = 2**8


class MassMeasure:
    """The probability measure splitting each interval's mass equally among
    its children, evaluated on the trimmed hierarchy."""

    def __init__(self, star: StarState):
        self.star = star


def mu_window(measure: MassMeasure, U: tuple[Fraction, Fraction],
              k: int) -> Fraction:
    """Exact mass of the closed window U = [a, b] at resolution depth k, the
    fraction of trimmed level-k intervals meeting U: (#{lo <= b} - #{hi < a})
    / N_k, each count a `StarState.rank` call on a one-query batch, so any
    depth works."""
    a, b = Fraction(U[0]), Fraction(U[1])
    if a > b:
        raise DomainError(f"window [{a}, {b}] is empty")
    star = measure.star
    # an interval [x, x + delta*_k] starts at or before b, or ends before a
    starts, = star.rank(k, [b], bisect_right)
    ends, = star.rank(k, [a - star.delta_star(k)], bisect_left)
    return Fraction(starts - ends, star.spec.count(k))


# ---------------------------------------------------------------------------
# Frostman-type audits
# ---------------------------------------------------------------------------

def bound_constant(cert: ConditionCert, condition: str) -> Fraction:
    """The per-condition Frostman constant."""
    omega = cert.omega(condition)
    if condition == "A":
        return 32 * omega
    if condition == "B":
        return 32 * (4 * omega + 1)
    return 8 * max(Fraction(1), 1 / omega)


@dataclass
class WindowAudit:
    t: float
    condition: str
    constant: Fraction
    k0: int
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
                   level_range: tuple[int, int], mode: str = "exhaustive",
                   cert: ConditionCert | None = None,
                   samples: int = 2000, seed: int = 0,
                   threads: int = 1) -> WindowAudit:
    """Audit mu(U) <= C |U|^t over windows with trimmed-(k+1) length <= |U|
    < trimmed-k length, for k in level_range (clamped below by the threshold
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
    star, spec = measure.star, measure.star.spec
    k_lo, k_hi = level_range
    if k_lo < 1 or k_hi < k_lo:
        raise DomainError(f"bad level range {level_range}")
    series = dim_formula_seq(spec, k_hi + 1)
    if t >= series.tail_min:
        raise RegimeError(
            f"t = {t} is not below the trailing dimension-series minimum "
            f"{series.tail_min:.6f}; the bound is not claimed there")
    k0 = threshold_level(star, t, k_hi)
    k_lo = max(k_lo, k0)
    if k_lo > k_hi:
        raise RegimeError(
            f"threshold level {k0} exceeds the top of the range {k_hi}")

    levels = list(range(k_lo, k_hi + 1))
    if mode == "exhaustive":
        # every level's budget is checked before the certificate and before
        # any window is measured: N distinct left endpoints and a last right
        # endpoint past them all make at least N(N+1)/2 pairs, checked
        # before the level exists, and the exact count once it does
        sweeps = {}
        for k in levels:
            size = spec.count(k + 1)
            _check_windows(k, size * (size + 1) // 2, "at least ")
            sweeps[k] = _sweep(star, k)
    if cert is None:
        cert = check_conditions(spec, k_hi + 1)
    constant = bound_constant(cert, condition)

    def audit_level(k: int):
        den, count, windows = (sweeps[k] if mode == "exhaustive"
                               else _draws(star, k, samples, seed))
        best, wit, cnt = -1.0, None, 0
        for a, b, mass in windows:
            cnt += 1
            r = power_ratio(mass, count, b - a, den, t)
            if r > best:
                best, wit = r, (a, b)
        if wit is not None:
            wit = Fraction(wit[0], den), Fraction(wit[1], den), k
        return best, wit, cnt

    from concurrent.futures import ThreadPoolExecutor   # only audits load it
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(audit_level, levels))
    # deterministic reduction in level order; max keeps the first
    # (leftmost, lowest-level) witness among ties
    worst, witness, _ = max(results, key=lambda result: result[0])
    total = sum(cnt for _, _, cnt in results)
    return WindowAudit(t, condition, constant, k0, max(worst, 0.0), witness,
                       total, mode)


def _sweep(star: StarState, k: int):
    """The exhaustive level-k windows, over the trimmed level k+1, as
    (den, N, windows): N = N_{k+1}, and windows yields (a, b, m) for each
    window [a / den, b / den] of mass m / N, in audit order.  Everything is
    an integer over den, the lcm of the level's denominators and the
    widths'; the level is built, and its exact pair count checked, here.
    A window spans two endpoints, [pts[i], pts[j]], so its mass is
    (#{lo <= pts[j]} - #{hi < pts[i]}) / N."""
    nodes = list(star.iter_level(k + 1))
    lo_w, hi_w = star.delta_star(k + 1), star.delta_star(k)
    den = lcm(lo_w.denominator, hi_w.denominator, *{n.den for n in nodes})
    lo_w, hi_w = (x.numerator * (den // x.denominator) for x in (lo_w, hi_w))
    los = [n.lo_num * (den // n.den) for n in nodes]
    his = [n.hi_num * (den // n.den) for n in nodes]
    pts = sorted(set(los + his))
    _check_windows(k, len(pts) * (len(pts) - 1) // 2)
    starts = [bisect_right(los, p) for p in pts]
    ends = [bisect_left(his, p) for p in pts]

    def windows():
        for i, a in enumerate(pts):
            for j in range(bisect_left(pts, a + lo_w), len(pts)):
                if pts[j] - a >= hi_w:
                    break
                yield a, pts[j], starts[j] - ends[i]
    return den, len(nodes), windows()


def _draws(star: StarState, k: int, samples: int, seed: int):
    """The sampled level-k windows as (den, N, windows) like `_sweep`: each
    of `samples` seeded draws has width w = lo_w + (hi_w - lo_w) u and left
    end hull_lo + (hull length - w) v, with lo_w = delta*_{k+1}, hi_w =
    delta*_k and u, v multiples of 2^-30 in [0, 1).  Over den = E 2^60, E
    the lcm of those four rationals' denominators, all are integers.  The
    windows are drawn `_CHUNK` at a time, u then v per window, each as
    `randrange(2^30)` draws it, and each chunk's masses are two batched
    integer rank descents at level k+1, one for its right ends and one for
    its left ends."""
    lo_w, hi_w = star.delta_star(k + 1), star.delta_star(k)
    hull_lo, hull_hi = star.spec.interval
    e = lcm(*(x.denominator for x in (lo_w, hi_w, hull_lo, hull_hi)))
    lo_w, hi_w, hull_lo, hull_hi = (x.numerator * (e // x.denominator)
                                    for x in (lo_w, hi_w, hull_lo, hull_hi))
    bits = _SAMPLE_BITS
    den, reach = e << 2 * bits, lo_w << 2 * bits    # reach: delta*_{k+1} den
    # randrange(_SAMPLE_SPAN)'s own draw: getrandbits under its rejection
    # loop, without its per-call overhead
    draw = random.Random(f"{seed}|{k}").getrandbits

    def windows():
        for at in range(0, samples, _CHUNK):
            los, his = [], []
            for _ in range(min(_CHUNK, samples - at)):
                u = draw(bits + 1)
                while u >= _SAMPLE_SPAN:
                    u = draw(bits + 1)
                v = draw(bits + 1)
                while v >= _SAMPLE_SPAN:
                    v = draw(bits + 1)
                # the width over E 2^30, the ends over E 2^60
                width = (lo_w << bits) + (hi_w - lo_w) * u
                span = ((hull_hi - hull_lo) << bits) - width
                a = (hull_lo << 2 * bits) + span * v
                los.append(a)
                his.append(a + (width << bits))
            starts = star.rank(k + 1, his, bisect_right, den)
            ends = star.rank(k + 1, [a - reach for a in los], bisect_left, den)
            yield from zip(los, his, map(sub, starts, ends))
    return den, star.spec.count(k + 1), windows()


def _check_windows(k: int, pairs: int, least: str = "") -> None:
    if pairs > DEFAULT_WINDOW_BUDGET:
        raise BudgetExceededError(
            f"level {k} exhaustive audit needs {least}{pairs} windows "
            f"(> budget {DEFAULT_WINDOW_BUDGET})")
