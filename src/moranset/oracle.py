"""Slow, independent reimplementations used only by tests.

Nothing here shares traversal or counting code with the main modules; the
only shared dependency is the parameter container itself.  Values produced
here are frozen into tests as expected results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import gt, lt
from typing import Iterable, Sequence

from .errors import (BudgetExceededError, DegenerateSpecError, DomainError,
                     InconsistentSpecError)
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

def oracle_gaps(spec: MoranSpec, sigma: tuple[int, ...],
                k: int) -> tuple[Fraction, ...]:
    """The n_k - 1 interior gaps of parent sigma at level k: the slack
    delta_{k-1} - n_k delta_k - L_k - R_k split in `Fraction`s in proportion
    to the policy's gap weights."""
    n = spec.n(k)
    slack = spec.delta(k - 1) - n * spec.delta(k) - spec.L(k) - spec.R(k)
    if slack < 0:
        raise InconsistentSpecError(f"negative slack {slack} at level {k}")
    w = spec.gaps.gap_weights(sigma, k, n - 1)
    total = sum(w)
    return tuple(slack * wi / total for wi in w)


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
            gaps = oracle_gaps(spec, addr, depth)
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
# Condition certificates and the refinement schedule
# ---------------------------------------------------------------------------

@dataclass
class OracleConditions:
    """`oracle_conditions`' constants, named as `dimension.ConditionCert`'s."""
    omega1: Fraction | None
    omega1_witness: int | None
    omega2: Fraction
    omega2_witness: int
    omega3: Fraction
    omega3_witness: int


def oracle_conditions(spec: MoranSpec, K: int) -> OracleConditions:
    """The three condition constants over levels 1..K, each with the first
    level that attains it: per level, from every parent's sibling gaps in
    the `oracle_level` list, ω1 = max gap / min gap (None at any level
    with a zero gap), ω2 = max gap / (c_1...c_k) and ω3 = n_k min gap /
    (c_1...c_{k-1}), the gaps as lengths on the initial interval."""
    ratios: list[list[tuple[int, Fraction | None]]] = [[], [], []]
    shrink = Fraction(1)
    for k in range(1, K + 1):
        level = oracle_level(spec, k)
        n = spec.n(k)
        gaps = [level[i + 1][0] - level[i][1]
                for i in range(len(level) - 1) if (i + 1) % n]
        widest, narrowest = max(gaps), min(gaps)
        ratios[0].append((k, widest / narrowest if narrowest else None))
        ratios[2].append((k, n * narrowest / shrink))
        shrink *= spec.c(k)
        ratios[1].append((k, widest / shrink))

    def first(rows, better):
        k, best = rows[0]
        for j, r in rows[1:]:
            if better(r, best):
                k, best = j, r
        return best, k

    zero = any(r is None for _, r in ratios[0])
    return OracleConditions(
        *((None, None) if zero else first(ratios[0], gt)),
        *first(ratios[1], gt), *first(ratios[2], lt))


def oracle_schedule(spec: MoranSpec, condition: str, omega: Fraction,
                    K: int) -> tuple[int, list[int]]:
    """The refinement base M and step counts i_1..i_K for the constant ω of
    condition A or B (from `oracle_conditions`): M is the least integer
    above the spread bound 2ω (A) or 2(ω + 1) (B), and i_k is one less than
    the number of base-M digits of n_k, at least 1."""
    bound = 2 * omega if condition == "A" else 2 * (omega + 1)
    M = bound.numerator // bound.denominator + 1
    steps = []
    for k in range(1, K + 1):
        digits, n = 0, spec.n(k)
        while n:
            digits, n = digits + 1, n // M
        steps.append(max(digits - 1, 1))
    return M, steps


# ---------------------------------------------------------------------------
# Branch hierarchy and its refinement statistics
# ---------------------------------------------------------------------------

def oracle_hierarchy(spec: MoranSpec, M: int, steps: Sequence[int],
                     m_max: int) -> list[list[tuple[Fraction, Fraction, int, int, int]]]:
    """Branch levels 0..m_max as `(lo, hi, a, b, parent)`, rebuilt from the
    trimmed `oracle_level` lists: stage k takes `steps[k-1]` levels, each
    splitting every run of trimmed level-k indices [a, b) into M groups,
    group j holding the indices congruent to j mod M in count (so larger
    groups first), except the stage's last step, which splits every run
    into single intervals.  The stage's first runs are the n_k children of
    each trimmed level-(k-1) interval."""
    (lo, hi), = oracle_level(spec, 0, trimmed=True)
    levels = [[(lo, hi, 0, 1, 0)]]
    k = 0
    while len(levels) <= m_max:
        k += 1
        nodes = oracle_level(spec, k, trimmed=True)
        n = spec.n(k)
        runs = [(a, a + n) for a in range(0, len(nodes), n)]
        for t in range(1, steps[k - 1] + 1):
            if len(levels) > m_max:
                break
            level = []
            for parent, (a, b) in enumerate(runs):
                q = b - a
                sizes = ([1] * q if t == steps[k - 1]
                         else [len(range(j, q, M)) for j in range(M)])
                for size in sizes:
                    level.append((nodes[a][0], nodes[a + size - 1][1],
                                  a, a + size, parent))
                    a += size
            levels.append(level)
            runs = [(a, b) for _, _, a, b, _ in level]
    return levels


@dataclass
class OracleStats:
    """`oracle_stats`' series, indexed as `qsmap.QsStats`, and per level
    `(count, max_len, min_len, total_len, psi_max, psi_min)` as
    `branchtree.BranchStats`."""
    beta: list[Fraction]
    theta: list[Fraction]
    kappa: list[Fraction | None]
    chi: list[Fraction]
    lambda_star: list[Fraction]
    lambda_under: list[Fraction]
    gamma_star: list[Fraction]
    gamma_under: list[Fraction]
    l_T: list[Fraction]
    levels: list[tuple[int, Fraction, Fraction, Fraction, int, int]]


def oracle_stats(spec: MoranSpec, M: int, steps: Sequence[int],
                 m_max: int) -> OracleStats:
    """The refinement statistics of `oracle_hierarchy` through level
    m_max - 1, each family's children found by their parent index: β the
    largest gap left in a branch (either end or between children), θ the
    least share of it its children cover, χ the largest child share, κ the
    least trimmed gap inside it, all over the branch's length; λ and γ
    compare a level's lengths and its stage's trimmed sibling gaps with the
    level above's lengths.  At a milestone m_j (j < len(steps)) each branch
    is one trimmed interval, so ψ = n_{j+1}; elsewhere ψ is the extreme
    count of trimmed intervals a branch spans."""
    levels = oracle_hierarchy(spec, M, steps, m_max)
    milestones = [0]
    for s in steps:
        milestones.append(milestones[-1] + s)
    per_level = []
    for m, level in enumerate(levels):
        lengths = [hi - lo for lo, hi, _, _, _ in level]
        if m in milestones[:-1]:
            psi = (spec.n(milestones.index(m) + 1),) * 2
        else:
            spans = [b - a for _, _, a, b, _ in level]
            psi = (max(spans), min(spans))
        per_level.append((len(level), max(lengths), min(lengths), sum(lengths))
                         + psi)
    out = OracleStats(*([] for _ in range(9)), per_level)
    for m in range(m_max - 1):
        k = next(j for j in range(1, len(milestones)) if m + 1 <= milestones[j])
        nodes = oracle_level(spec, k, trimmed=True)
        n = spec.n(k)
        siblings = [nodes[i + 1][0] - nodes[i][1] for i in range(len(nodes) - 1)
                    if (i + 1) % n]
        kids: dict[int, list] = {}
        for br in levels[m + 1]:
            kids.setdefault(br[4], []).append(br)
        b, t, c, kp = [], [], [], []
        for p, run in kids.items():
            lo, hi = levels[m][p][:2]
            length = hi - lo
            gaps = [run[0][0] - lo, hi - run[-1][1]]
            gaps += [y[0] - x[1] for x, y in zip(run, run[1:])]
            sizes = [y - x for x, y, _, _, _ in run]
            b.append(max(gaps) / length)
            t.append(sum(sizes) / length)
            c.append(max(sizes) / length)
            first, last = run[0][2], run[-1][3]
            inner = [nodes[i + 1][0] - nodes[i][1] for i in range(first, last - 1)]
            if inner:
                kp.append(min(inner) / length)
        prev, cur = per_level[m], per_level[m + 1]
        out.beta.append(max(b))
        out.theta.append(min(t))
        out.chi.append(max(c))
        out.kappa.append(min(kp) if kp else None)
        out.lambda_star.append(cur[1] / prev[2])
        out.lambda_under.append(cur[2] / prev[1])
        out.gamma_star.append(max(siblings) / prev[2])
        out.gamma_under.append(min(siblings) / prev[1])
    out.l_T.extend(row[3] for row in per_level[:m_max])
    return out


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
