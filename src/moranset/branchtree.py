"""Second reconstruction: interpolate trimmed levels by a bounded-ratio
branch hierarchy.

Consecutive trimmed levels can refine by an unbounded factor (n_k children at
once).  This module inserts intermediate levels so that every refinement step
multiplies the branch count of a parent by at most M, except the last step of
a stage which may multiply by up to M^2.  Each intermediate branch is the
hull of a contiguous run of trimmed intervals; runs are split into M balanced
contiguous groups (sizes differing by at most 1, larger groups leftmost).

Two representations are supported: a per-parent template (valid whenever the
gap policy is node-independent, so every parent is a translate of every
other) and an explicit enumeration of all branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .dimension import ConditionCert, check_conditions
from .errors import (BudgetExceededError, ConditionInapplicableError,
                     DomainError, InvalidSpecError)
from .reconstruct import StarState, first_reconstruct
from .specs import MoranSpec
from .tree import DEFAULT_NODE_BUDGET, root


@dataclass
class Schedule:
    """Refinement schedule: step budget i_k per stage and milestones m_k."""
    M: int
    condition: str              # "A" or "B"
    omega: Fraction             # the certified constant behind M
    i: list[int]                # i[k-1] = steps of stage k, k = 1..K
    m: list[int]                # m[k] = cumulative steps, m[0] = 0

    @property
    def K(self) -> int:
        return len(self.i)

    @property
    def m_max(self) -> int:
        return self.m[-1]

    def stage_of(self, level: int) -> int:
        """The stage k with m_{k-1} < level <= m_k."""
        if not 1 <= level <= self.m_max:
            raise DomainError(f"level {level} outside schedule range 1..{self.m_max}")
        for k in range(1, self.K + 1):
            if level <= self.m[k]:
                return k
        raise AssertionError

    def step_of(self, level: int) -> tuple[int, int]:
        k = self.stage_of(level)
        return k, level - self.m[k - 1]

    @property
    def spread_bound(self) -> Fraction:
        return spread_bound(self.condition, self.omega)


def spread_bound(condition: str, omega: Fraction) -> Fraction:
    """The branch-length comparability factor: 2*omega under condition A,
    2*(omega+1) under condition B."""
    if condition == "A":
        return 2 * omega
    return 2 * (omega + 1)


def choose_M(spec: MoranSpec, condition: str, K: int,
             cert: ConditionCert | None = None) -> Schedule:
    """Pick the refinement base M (smallest integer above the comparability
    bound) and the per-stage step counts i_k with M^{i_k} <= n_k < M^{i_k+1}
    (i_k = 1 for n_k < M)."""
    if condition not in ("A", "B"):
        raise DomainError(f"refinement requires condition A or B, got {condition!r}")
    if cert is None:
        cert = check_conditions(spec, K)
    omega = cert.omega(condition)
    if omega is None:
        raise ConditionInapplicableError(
            "condition A is inapplicable (a level has a zero interior gap)")
    bound = spread_bound(condition, omega)
    M = int(bound) + 1 if bound == int(bound) else math.ceil(bound)
    i = []
    m = [0]
    for k in range(1, K + 1):
        n = spec.n(k)
        ik = 1
        while M ** (ik + 1) <= n:
            ik += 1
        i.append(ik)
        m.append(m[-1] + ik)
    return Schedule(M, condition, omega, i, m)


def balanced_groups(q: int, M: int) -> list[int]:
    """q split into M contiguous group sizes, larger groups leftmost."""
    base, extra = divmod(q, M)
    return [base + 1] * extra + [base] * (M - extra)


# ---------------------------------------------------------------------------
# Branch records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Branch:
    """One branch: hull of the trimmed intervals with indices [a, b) of its
    stage, positioned by exact endpoints (template mode: offsets within the
    enclosing parent interval)."""
    lo: Fraction
    hi: Fraction
    a: int
    b: int
    parent: int             # index into the previous level's branch list

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def span(self) -> int:
        return self.b - self.a


@dataclass
class BranchStats:
    m: int
    count: int
    max_len: Fraction
    min_len: Fraction
    total_len: Fraction
    psi_max: int            # trimmed intervals spanned, toward the next milestone
    psi_min: int


@dataclass
class GapRecord:
    """Per-branch refinement data at one level: the branch length, its
    children's lengths at the next level, the removed gaps between and around
    them, and the trimmed-interval gaps strictly inside the branch."""
    length: Fraction
    child_lengths: list[Fraction]
    gap_lengths: list[Fraction]          # left trim, between-children, right trim
    interior_star_gaps: list[Fraction]   # all trimmed-level gaps inside the branch
    multiplicity: int = 1


def refine_stage(runs: list[tuple[int, int]], steps: int, M: int,
                 hull: Callable[[int, int], tuple[Fraction, Fraction]]
                 ) -> Iterator[list[Branch]]:
    """The `steps` levels of one stage, coarsest first.

    Each run [a, b) of trimmed-interval indices splits into M balanced
    groups, except at the stage's last step, where every trimmed interval
    becomes its own branch.  `hull(a, b)` gives the endpoints of the branch
    spanning intervals a..b-1; a branch's parent is the index of its run.
    """
    for t in range(1, steps + 1):
        branches = []
        for pi, (a, b) in enumerate(runs):
            sizes = [1] * (b - a) if t == steps else balanced_groups(b - a, M)
            for size in sizes:
                lo, hi = hull(a, a + size)
                branches.append(Branch(lo, hi, a, a + size, pi))
                a += size
        yield branches
        runs = [(br.a, br.b) for br in branches]


class StageTemplate:
    """Geometry of one stage inside a single (node-independent) parent."""

    def __init__(self, star: StarState, k: int, steps: int, M: int):
        spec = star.spec
        self.n = spec.n(k)
        self.parent_len = star.delta_star(k - 1)
        self.child_len = star.delta_star(k)
        # trimmed children start L_{k+1} into their base intervals, and the
        # trimmed parent starts L_k into its own
        shift = spec.L(k + 1) - spec.L(k)
        self.offsets = [off + shift for off in spec.child_offsets((), k)]
        self.levels = list(refine_stage([(0, self.n)], steps, M, self.hull))

    def hull(self, a: int, b: int) -> tuple[Fraction, Fraction]:
        return self.offsets[a], self.offsets[b - 1] + self.child_len

    def star_gap(self, j: int) -> Fraction:
        """Trimmed gap between child j and j+1 (0-based)."""
        return self.offsets[j + 1] - (self.offsets[j] + self.child_len)


class BranchTree:
    """The interpolated refinement hierarchy through level m_max.

    Level 0 is the trimmed root interval; in explicit mode it is stored as
    `explicit[0]`.
    """

    def __init__(self, spec: MoranSpec, schedule: Schedule, star: StarState,
                 m_max: int, mode: str,
                 templates: dict[int, StageTemplate] | None = None,
                 explicit: list[list[Branch]] | None = None):
        self.spec = spec
        self.schedule = schedule
        self.star = star
        self.m_max = m_max
        self.mode = mode
        self.templates = templates or {}
        self.explicit = explicit
        self._star_cache: dict[int, list] = {}

    # -- shared helpers -----------------------------------------------------

    def _level(self, m: int) -> tuple[list[Branch], int]:
        """The level-m branches and how many times they repeat: template
        mode holds one parent cell's worth, repeated in every parent of the
        stage."""
        if self.mode == "explicit":
            return self.explicit[m], 1
        if m == 0:
            return [Branch(Fraction(0), self.star.delta_star(0), 0, 1, 0)], 1
        k, t = self.schedule.step_of(m)
        return self.templates[k].levels[t - 1], self.spec.count(k - 1)

    def level_branches(self, m: int) -> list[Branch]:
        """Explicit branches at level m (explicit mode only)."""
        if self.mode != "explicit":
            raise DomainError("explicit branch lists require mode='explicit'")
        return self.explicit[m]

    def branch_count(self, m: int) -> int:
        level, reps = self._level(m)
        return reps * len(level)

    def branch_lengths(self, m: int) -> list[Fraction]:
        """Distinct branch lengths are whatever the level holds; template
        mode returns one parent's worth (the global multiset repeats it)."""
        level, _ = self._level(m)
        return [br.length for br in level]

    def branch_stats(self, m: int) -> BranchStats:
        level, reps = self._level(m)
        lens = [br.length for br in level]
        milestones = self.schedule.m
        # At a milestone the span resets: psi points at the *next* milestone.
        if m in milestones[:-1]:
            psi_max = psi_min = self.spec.n(milestones.index(m) + 1)
        else:
            spans = [br.span for br in level]
            psi_max, psi_min = max(spans), min(spans)
        return BranchStats(m, reps * len(level), max(lens), min(lens),
                           reps * sum(lens), psi_max, psi_min)

    def children_per_branch(self, m: int) -> tuple[int, int]:
        """(max, min) number of level-(m+1) branches inside a level-m branch."""
        counts = {len(rec.child_lengths) for rec in self.gap_structure(m)}
        return max(counts), min(counts)

    # -- refinement structure ------------------------------------------------

    def gap_structure(self, m: int) -> Iterator[GapRecord]:
        """One record per level-m branch (template mode: per distinct branch
        of one parent cell, with multiplicities) describing its level-(m+1)
        children and removed gaps."""
        if m < 0:
            raise DomainError("gap structure needs m >= 0")
        if self.mode == "explicit":
            if m >= self.m_max:
                raise DomainError(
                    f"explicit gap structure needs m < m_max = {self.m_max}")
            nodes = self._star_cache[self.schedule.stage_of(m + 1)]
            yield from _gap_records(self.explicit[m], self.explicit[m + 1],
                                    lambda j: nodes[j + 1].lo - nodes[j].hi, 1)
            return
        if (m + 1 > self.schedule.m_max
                or self.schedule.stage_of(m + 1) not in self.templates):
            raise DomainError(
                f"gap structure at level {m} needs the stage of level "
                f"{m + 1}; rebuild with a larger depth")
        k_next, t_next = self.schedule.step_of(m + 1)
        tpl = self.templates[k_next]
        if t_next == 1:
            # m is the milestone m_{k_next - 1}: one trimmed interval, whose
            # children are the first-step branches of the next stage
            level = [Branch(Fraction(0), tpl.parent_len, 0, tpl.n, 0)]
        else:
            level = tpl.levels[t_next - 2]
        yield from _gap_records(level, tpl.levels[t_next - 1], tpl.star_gap,
                                self.spec.count(k_next - 1))

    def chi(self, m: int) -> Fraction:
        """Largest branch/parent length ratio at level m (m >= 1), exact."""
        if m < 1:
            raise DomainError("chi is defined for m >= 1")
        level, _ = self._level(m)
        parents, _ = self._level(m - 1)
        return max(br.length / parents[br.parent].length for br in level)


def _gap_records(level: list[Branch], children: list[Branch],
                 star_gap: Callable[[int], Fraction],
                 reps: int) -> Iterator[GapRecord]:
    """One record per branch of `level`: its children's lengths, the gaps
    removed between and around them, and the trimmed gaps inside it."""
    by_parent: dict[int, list[Branch]] = {}
    for br in children:
        by_parent.setdefault(br.parent, []).append(br)
    for i, br in enumerate(level):
        kids = by_parent[i]
        gap_lengths = [kids[0].lo - br.lo]
        for prev, nxt in zip(kids, kids[1:]):
            gap_lengths.append(nxt.lo - prev.hi)
        gap_lengths.append(br.hi - kids[-1].hi)
        star_gaps = [star_gap(j) for j in range(kids[0].a, kids[-1].b - 1)]
        yield GapRecord(br.length, [c.length for c in kids], gap_lengths,
                        star_gaps, multiplicity=reps)


def build_T(spec: MoranSpec, schedule: Schedule, m_max: int,
            mode: str = "auto", budget: int = DEFAULT_NODE_BUDGET) -> BranchTree:
    """Build the refinement hierarchy through level m_max.

    mode "template" exploits node-independent gap policies (one parent cell
    represents every level); "explicit" enumerates every branch and is
    required for per-node (seeded) gap policies and for mapping the branches
    through a homeomorphism.  "auto" picks template whenever legal.
    """
    if m_max < 1:
        raise DomainError("m_max must be >= 1")
    if schedule.m_max < m_max:
        raise DomainError(
            f"schedule covers levels up to {schedule.m_max} < m_max = {m_max}; "
            "extend the schedule depth")
    # stages needed: through the stage containing m_max (plus one more stage
    # for gap structures at m_max, when the schedule has it)
    k_top = schedule.stage_of(m_max)
    k_build = min(schedule.K, k_top + 1)
    star = first_reconstruct(spec, k_build)
    if mode == "auto":
        mode = "template" if spec.gaps.node_independent else "explicit"
    if mode == "template":
        if not spec.gaps.node_independent:
            raise InvalidSpecError(
                "template mode requires a node-independent gap policy")
        templates = {k: StageTemplate(star, k, schedule.i[k - 1], schedule.M)
                     for k in range(1, k_build + 1)}
        return BranchTree(spec, schedule, star, m_max, "template",
                          templates=templates)
    top = star.trim(root(spec), 0)
    levels = [[Branch(top.lo, top.hi, 0, 1, 0)]]
    star_cache: dict[int, list] = {}
    for k in range(1, k_build + 1):
        if len(levels) > m_max:
            break
        if spec.count(k) > budget:
            raise BudgetExceededError(
                f"explicit refinement at stage {k} needs {spec.count(k)} "
                f"trimmed intervals (> budget {budget})")
        nodes = star.level(k, budget=budget).nodes
        star_cache[k] = nodes
        n_k = spec.n(k)
        runs = [(p * n_k, (p + 1) * n_k) for p in range(spec.count(k - 1))]

        def hull(a: int, b: int, nodes=nodes) -> tuple[Fraction, Fraction]:
            return nodes[a].lo, nodes[b - 1].hi

        for branches in refine_stage(runs, schedule.i[k - 1], schedule.M, hull):
            levels.append(branches)
            if len(levels) > m_max:
                break
    if len(levels) <= m_max:
        raise DomainError(
            f"could not reach level {m_max} (stopped at {len(levels) - 1})")
    tree = BranchTree(spec, schedule, star, m_max, "explicit", explicit=levels)
    tree._star_cache = star_cache
    return tree
