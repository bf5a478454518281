"""Second reconstruction: interpolate trimmed levels by a bounded-ratio
branch hierarchy.

Consecutive trimmed levels can refine by an unbounded factor (n_k children at
once).  This module inserts intermediate levels so that every refinement step
multiplies the branch count of a parent by at most M, except the last step of
a stage which may multiply by up to M^2.  Each intermediate branch spans a
contiguous run of trimmed intervals; runs are split into M balanced
contiguous groups (sizes differing by at most 1, larger groups leftmost).
Each parent's children are therefore one contiguous run of the next level,
and the runs come in parent order.

One builder serves both modes.  Explicit mode refines every parent of each
stage.  Auto mode builds a template when the gap policy is node-independent:
every parent is then a translate of the first, so it refines only the first
parent, whose cell, counted count(k-1) times, gives every statistic; on
per-node gaps auto mode builds explicitly.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, islice
from operator import attrgetter
from typing import Iterator

from .dimension import ConditionCert, check_conditions
from .errors import BudgetExceededError, DomainError
from .reconstruct import StarState, first_reconstruct
from .specs import MoranSpec
from .tree import DEFAULT_NODE_BUDGET, Interval, Node


@dataclass
class Schedule:
    """Refinement schedule: step budget i_k per stage and milestones m_k."""
    M: int
    i: list[int]                # i[k-1] = steps of stage k, k = 1..K
    m: list[int]                # m[k] = cumulative steps, m[0] = 0

    @property
    def m_max(self) -> int:
        return self.m[-1]

    def stage_of(self, level: int) -> int:
        """The stage k with m_{k-1} < level <= m_k."""
        if not 1 <= level <= self.m_max:
            raise DomainError(f"level {level} outside schedule range 1..{self.m_max}")
        return bisect_left(self.m, level)


def spread_bound(condition: str, omega: Fraction) -> Fraction:
    """The branch-length comparability factor: 2*omega under condition A,
    2*(omega+1) under condition B."""
    if condition == "A":
        return 2 * omega
    if condition == "B":
        return 2 * (omega + 1)
    raise DomainError(f"refinement requires condition A or B, got {condition!r}")


def choose_M(spec: MoranSpec, condition: str, K: int,
             cert: ConditionCert | None = None) -> Schedule:
    """Pick the refinement base M (smallest integer above the comparability
    bound) and the per-stage step counts i_k with M^{i_k} <= n_k < M^{i_k+1}
    (i_k = 1 for n_k < M)."""
    if cert is None:
        cert = check_conditions(spec, K)
    omega = cert.omega(condition)
    bound = spread_bound(condition, omega)
    M = int(bound) + 1
    i = []
    m = [0]
    for k in range(1, K + 1):
        n = spec.n(k)
        ik = 1
        while M ** (ik + 1) <= n:
            ik += 1
        i.append(ik)
        m.append(m[-1] + ik)
    return Schedule(M, i, m)


def balanced_groups(q: int, M: int) -> list[int]:
    """q split into M contiguous group sizes, larger groups leftmost."""
    base, extra = divmod(q, M)
    return [base + 1] * extra + [base] * (M - extra)


# ---------------------------------------------------------------------------
# Branch records
# ---------------------------------------------------------------------------

class Branch(Interval):
    """One branch: the span of the trimmed intervals with indices [a, b) of
    its stage, from the left end of interval a to the right end of b-1,
    over their shared denominator (each run of siblings has one)."""
    __slots__ = ("a", "b", "parent")

    def __init__(self, lo_num: int, hi_num: int, den: int, a: int, b: int,
                 parent: int):
        super().__init__(lo_num, hi_num, den)
        self.a = a
        self.b = b
        self.parent = parent    # index into the previous level's branch list

    @property
    def span(self) -> int:
        return self.b - self.a


@dataclass
class BranchStats:
    count: int
    max_len: Fraction
    min_len: Fraction
    total_len: Fraction
    psi_max: int            # trimmed intervals spanned, toward the next milestone
    psi_min: int


def refine_stage(runs: list[tuple[int, int]], steps: int, M: int,
                 nodes: list[Node]) -> Iterator[list[Branch]]:
    """The `steps` levels of one stage, coarsest first.

    Each run [a, b) of indices into the stage's trimmed intervals `nodes`
    splits into M balanced groups, except at the stage's last step, where
    every trimmed interval becomes its own branch.  A branch's parent is the
    index of its run, so each run's children are contiguous and in run
    order.  Every run lies inside one parent's siblings, which share one
    denominator, so a branch takes its first node's `lo_num` and its last
    node's `hi_num` over that denominator.
    """
    for t in range(1, steps + 1):
        branches = []
        for pi, (a, b) in enumerate(runs):
            sizes = [1] * (b - a) if t == steps else balanced_groups(b - a, M)
            for size in sizes:
                first, last = nodes[a], nodes[a + size - 1]
                branches.append(Branch(first.lo_num, last.hi_num, first.den,
                                       a, a + size, pi))
                a += size
        yield branches
        runs = [(br.a, br.b) for br in branches]


class BranchTree:
    """The interpolated refinement hierarchy.

    `levels[m]` holds the level-m branches (level 0: the trimmed root); the
    milestone level `levels[schedule.m[k]]` holds stage k's trimmed
    intervals, in order; in template mode each stage covers only its first
    parent.
    The children of each level-m branch are one contiguous run of
    `levels[m+1]`, runs in parent order; `families(m)` reads them, and every
    per-parent statistic comes from those runs.
    """

    def __init__(self, spec: MoranSpec, schedule: Schedule, star: StarState,
                 mode: str, levels: list[list[Branch]]):
        self.spec = spec
        self.schedule = schedule
        self.star = star
        self.mode = mode
        self.levels = levels

    @property
    def m_max(self) -> int:
        return len(self.levels) - 1

    @property
    def explicit(self) -> list[list[Branch]] | None:
        """Every branch of levels 0..m_max (explicit mode only, else None)."""
        return self.levels if self.mode == "explicit" else None

    def branch_stats(self, m: int) -> BranchStats:
        """Level m's count, length extremes and total, and span extremes;
        extremes compared by cross-multiplying, totals per denominator."""
        level = self.levels[m]
        # template levels repeat once per trimmed interval of the stage before
        reps = (1 if self.mode == "explicit" or m == 0
                else self.spec.count(self.schedule.stage_of(m) - 1))
        first = level[0]
        top = bottom = (first.hi_num - first.lo_num, first.den)
        totals: dict[int, int] = {}
        for den, run in groupby(level, key=attrgetter("den")):
            lens = [br.hi_num - br.lo_num for br in run]
            a, b = max(lens), min(lens)
            if a * top[1] > top[0] * den:
                top = (a, den)
            if b * bottom[1] < bottom[0] * den:
                bottom = (b, den)
            totals[den] = totals.get(den, 0) + sum(lens)
        milestones = self.schedule.m
        # At a milestone the span resets: psi points at the *next* milestone.
        if m in milestones[:-1]:
            psi_max = psi_min = self.spec.n(milestones.index(m) + 1)
        else:
            spans = [br.span for br in level]
            psi_max, psi_min = max(spans), min(spans)
        return BranchStats(reps * len(level), Fraction(*top), Fraction(*bottom),
                           reps * sum(Fraction(t, den) for den, t in totals.items()),
                           psi_max, psi_min)

    def families(self, m: int) -> Iterator[tuple[Branch, list[Branch]]]:
        """Each level-m branch that the build refined, with its level-(m+1)
        children: one contiguous run of level m+1, in parent order.  In
        template mode that is the first parent's cell only; every other
        parent is a translate of it."""
        if not 0 <= m < len(self.levels) - 1:
            raise DomainError(
                f"families at level {m} need levels {m} and {m + 1}; "
                f"built through level {len(self.levels) - 1}")
        parents = self.levels[m]
        return ((parents[i], list(kids)) for i, kids
                in groupby(self.levels[m + 1], key=attrgetter("parent")))


def build_T(spec: MoranSpec, schedule: Schedule, m_max: int | None = None,
            mode: str = "auto", budget: int = DEFAULT_NODE_BUDGET) -> BranchTree:
    """Build the refinement hierarchy, levels 0..m_max (default: the
    schedule's top), from the trimmed levels 1..stage_of(m_max).

    Each stage k refines its parents' trimmed level-k children.  Mode
    "explicit" refines every parent, as mapping the branches through a
    non-affine map needs.  Mode "auto" builds a template, refining only the
    first parent of each stage, when the gap policy is node-independent,
    and refines every parent otherwise.
    """
    if mode not in ("auto", "explicit"):
        raise DomainError(f"unknown build mode {mode!r}: use 'auto' or 'explicit'")
    m_max = schedule.m_max if m_max is None else m_max
    if m_max < 1:
        raise DomainError("m_max must be >= 1")
    if schedule.m_max < m_max:
        raise DomainError(
            f"schedule covers levels up to {schedule.m_max} < m_max = {m_max}; "
            "extend the schedule depth")
    K = schedule.stage_of(m_max)
    star = first_reconstruct(spec, K)
    template = mode == "auto" and spec.gaps.node_independent
    if not template:
        for k in range(1, K + 1):
            if spec.count(k) > budget:
                raise BudgetExceededError(
                    f"explicit refinement at stage {k} needs {spec.count(k)} "
                    f"trimmed intervals (> budget {budget})")
    top, = star.level(0)
    levels = [[Branch(top.lo_num, top.hi_num, top.den, 0, 1, 0)]]
    for k in range(1, K + 1):
        # template: the trimmed children of the first parent, one path of
        # the level; explicit: the whole level, its budget checked above
        n_k = spec.n(k)
        nodes = list(islice(star.iter_level(k), n_k if template else None))
        runs = [(a, a + n_k) for a in range(0, len(nodes), n_k)]
        levels += islice(refine_stage(runs, schedule.i[k - 1], schedule.M, nodes),
                         m_max + 1 - len(levels))
    return BranchTree(spec, schedule, star, "template" if template else "explicit",
                      levels)
