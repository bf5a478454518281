"""Slow, independent reimplementations used only by tests.

Nothing here shares traversal or counting code with the main modules; the
only shared dependency is the parameter container itself.  Values produced
here are frozen into tests as expected results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import BudgetExceededError, DegenerateSpecError, DomainError
from .specs import MoranSpec

MAX_INTERVALS = 10**5
MAX_WINDOW_PAIRS = 10**6


@dataclass
class OracleResult:
    value: object
    method: str
    size: int


# ---------------------------------------------------------------------------
# Box counting by per-interval cell set
# ---------------------------------------------------------------------------

def naive_box_count(intervals: Iterable[tuple[Fraction, Fraction]],
                    eps: Fraction) -> OracleResult:
    """Cells of the 0-aligned eps grid meeting the union with positive
    length: cell j = [j*eps, (j+1)*eps) counts iff j*eps < hi and
    (j+1)*eps > lo.  Collected into a set, one cell at a time."""
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError("cell width must be positive")
    items = list(intervals)
    if not items:
        raise DomainError("empty interval list")
    if len(items) > MAX_INTERVALS:
        raise BudgetExceededError(
            f"{len(items)} intervals exceeds the oracle cap {MAX_INTERVALS}")
    cells: set[int] = set()
    for lo, hi in items:
        j = math.floor(Fraction(lo) / eps)
        while Fraction(j) * eps < hi:
            if Fraction(j + 1) * eps > lo:
                cells.add(j)
            j += 1
    return OracleResult(len(cells), "naive_box_count", len(items))


# ---------------------------------------------------------------------------
# Independent construction + exhaustive window sweep
# ---------------------------------------------------------------------------

def oracle_level(spec: MoranSpec, k: int,
                 trimmed: bool = False) -> list[tuple[Fraction, Fraction]]:
    """Level-k intervals rebuilt from the rules by breadth-first expansion."""
    level: list[tuple[Fraction, Fraction, tuple[int, ...]]] = [
        (spec.interval[0], spec.interval[1], ())]
    for depth in range(1, k + 1):
        n = spec.n(depth)
        d = spec.delta(depth)
        if len(level) * n > MAX_INTERVALS:
            raise BudgetExceededError(
                f"oracle level {depth} has {len(level) * n} intervals "
                f"(cap {MAX_INTERVALS})")
        nxt = []
        for lo, hi, addr in level:
            gaps = spec.interior_gaps(addr, depth)
            x = lo + spec.L(depth)
            for j in range(1, n + 1):
                nxt.append((x, x + d, addr + (j,)))
                if j < n:
                    x += d + gaps[j - 1]
        level = nxt
    if trimmed:
        return [(lo + spec.L(k + 1), hi - spec.R(k + 1)) for lo, hi, _ in level]
    return [(lo, hi) for lo, hi, _ in level]


def oracle_mu(stars: Sequence[tuple[Fraction, Fraction]],
              a: Fraction, b: Fraction) -> Fraction:
    """Linear-scan window mass at the deepest level: the fraction of trimmed
    intervals meeting the closed window."""
    hit = sum(1 for lo, hi in stars if hi >= a and lo <= b)
    return Fraction(hit, len(stars))


def exhaustive_mu_sweep(spec: MoranSpec, k: int, t: float) -> OracleResult:
    """Worst mass/width^t ratio over all windows spanned by pairs of
    depth-(k+1) trimmed endpoints whose width lies in
    [trimmed length at k+1, trimmed length at k)."""
    stars = oracle_level(spec, k + 1, trimmed=True)
    pts = sorted({p for iv in stars for p in iv})
    npairs = len(pts) * (len(pts) - 1) // 2
    if npairs > MAX_WINDOW_PAIRS:
        raise BudgetExceededError(
            f"{npairs} endpoint pairs exceeds the oracle cap {MAX_WINDOW_PAIRS}")
    lo_w = spec.delta(k + 1) - spec.L(k + 2) - spec.R(k + 2)
    hi_w = spec.delta(k) - spec.L(k + 1) - spec.R(k + 1)
    worst = 0.0
    witness = None
    checked = 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            width = pts[j] - pts[i]
            if width < lo_w or width >= hi_w:
                continue
            checked += 1
            mu = oracle_mu(stars, pts[i], pts[j])
            if mu == 0:
                continue
            r = float(mu) / float(width) ** t
            if r > worst:
                worst, witness = r, (pts[i], pts[j])
    return OracleResult((worst, witness), "exhaustive_mu_sweep", checked)


# ---------------------------------------------------------------------------
# Length-power measure on an image hierarchy
# ---------------------------------------------------------------------------

def oracle_mu_d(image, d: Fraction) -> list[list[Fraction]]:
    """Masses of the length-power measure on an image tree (anything with
    `levels` of branches carrying `lo`, `hi`, `parent`, and
    `precision_bits`): every parent's mass is split by `length^d`, each
    `Fraction` length raised by `mpmath.power` at `precision_bits + 32`
    bits, and the masses are `Fraction`s divided by the exact weight sum."""
    import mpmath
    masses = [[Fraction(1)]]
    with mpmath.workprec(image.precision_bits + 32):
        exponent = mpmath.mpf(d.numerator) / d.denominator
        for level in image.levels[1:]:
            weights = []
            for br in level:
                length = br.hi - br.lo
                if length <= 0:
                    raise DegenerateSpecError("zero-length image branch")
                power = mpmath.power(mpmath.mpf(length.numerator)
                                     / length.denominator, exponent)
                weights.append(power.man * Fraction(2) ** power.exp)
            totals: dict[int, Fraction] = {}
            for br, w in zip(level, weights):
                totals[br.parent] = totals.get(br.parent, 0) + w
            masses.append([masses[-1][br.parent] * w / totals[br.parent]
                           for br, w in zip(level, weights)])
    return masses


# ---------------------------------------------------------------------------
# Closed forms for the built-in parameter sets
# ---------------------------------------------------------------------------

def cantor3_dim() -> float:
    return math.log(2) / math.log(3)


def dim1_binary_s(K: int) -> list[float]:
    """Dimension-formula series of the dim1_binary parameters: n_k = 2,
    c_k = (1 - 4^-k)/2, no boundary gaps, so the level-k trimmed length is
    2^-k * prod_{j<=k} (1 - 4^-j)."""
    out = []
    correction = 0.0
    for k in range(1, K + 1):
        correction += math.log(1.0 / (1.0 - 0.25 ** k))
        num = k * math.log(2)
        out.append(num / (num + correction))
    return out


def dim1_binary_prop1_log_ratios(d: float, K: int) -> list[float]:
    """log of (2^-k) / (trimmed length)^d for the identity-map measure on
    the dim1_binary parameters (equal siblings: mass 2^-k per branch)."""
    out = []
    log_len = 0.0
    for k in range(1, K + 1):
        log_len += math.log(0.5 * (1.0 - 0.25 ** k))
        out.append(-k * math.log(2) - d * log_len)
    return out


def cantor3_frostman_single_interval(k: int, t: float) -> float:
    """mass/width^t when the window is exactly one trimmed level-k interval."""
    return (3.0 ** t / 2.0) ** k
