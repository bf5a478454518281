"""Exact enumeration of the level-k intervals of a Moran construction.

Every interval of the package, a level node, a branch of the second
reconstruction and its image under a map, is one record, `Interval`: two
integer numerators over one shared, unreduced denominator, whose `lo`, `hi`
and `length` read them as reduced `fractions.Fraction`s.  `Node` adds the
address.  No endpoint is rounded.  Levels can be materialized as
runs (within a node budget) or streamed in left-to-right order for deep
constructions.

A left endpoint is the initial lo plus one integer child offset per level
(`MoranSpec.child_offsets`).  Under `uniform` and `weighted` gaps every
parent of a level has the same offsets, and `_prescaled` is their one
table, per spec and depth, over one denominator.  `_split` divides a level
into heads, the intervals of some level h above k, and a tail, the levels
h+1..k below each head; under `uniform` and `weighted` gaps the tail's
sorted offsets are the same below every head, and `_tail` holds them once
per spec and depth.  One kernel, `_runs`, yields a level as runs, one per
head: the head's address, a denominator, the common span, the head's
left-endpoint numerator and the offsets of the intervals below it, whose
addresses are the head's plus one tail shared by every run; a seeded
level's heads are the level above, read from the same kernel.
`iter_level` and `LevelSet` make each `Node` from a run as it is read;
`export_level` writes the runs without making any.  `rank` is the one
descent of the offsets, for a batch of queries that shares the table and,
on seeded gaps, each parent's draw: a query walks the head levels, one
bisect each, and ends in one bisect of the tail.  No other module reads
the offsets.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm
from typing import IO, Iterable, Iterator

from .errors import BudgetExceededError, DomainError
from .specs import MoranSpec

Address = tuple[int, ...]

#: Default cap on materialized intervals per level.
DEFAULT_NODE_BUDGET = 2**21


class Interval:
    """A closed interval [lo_num/den, hi_num/den] with exact endpoints.

    The numerators share one denominator, not necessarily reduced; `lo`,
    `hi` and `length` are reduced `Fraction`s made on each read.  `Node`,
    `branchtree.Branch` and `qsmap.ImageBranch` extend it with their own
    fields, which the repr lists after the endpoints."""
    __slots__ = ("lo_num", "hi_num", "den")

    def __init__(self, lo_num: int, hi_num: int, den: int):
        self.lo_num = lo_num
        self.hi_num = hi_num
        self.den = den

    @property
    def lo(self) -> Fraction:
        return Fraction(self.lo_num, self.den)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.hi_num, self.den)

    @property
    def length(self) -> Fraction:
        return Fraction(self.hi_num - self.lo_num, self.den)

    def __repr__(self) -> str:
        fields = "".join(f", {name}={getattr(self, name)!r}"
                         for name in type(self).__slots__)
        return f"{type(self).__name__}(lo={self.lo!r}, hi={self.hi!r}{fields})"


class Node(Interval):
    """One level-k interval with its address: [lo_num/den, hi_num/den].

    The numerators share the level kernel's denominator unreduced.  Nodes
    compare and hash by address and exact endpoints, whatever their
    denominators."""
    __slots__ = ("address",)

    def __init__(self, address: Address, lo_num: int, hi_num: int, den: int):
        self.address = address
        self.lo_num = lo_num
        self.hi_num = hi_num
        self.den = den

    def __eq__(self, other):
        if not isinstance(other, Node):
            return NotImplemented
        return (self.address == other.address
                and self.lo_num * other.den == other.lo_num * self.den
                and self.hi_num * other.den == other.hi_num * self.den)

    def __hash__(self) -> int:
        return hash((self.address, self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Node(address={self.address!r}, lo={self.lo!r}, hi={self.hi!r})"


@dataclass
class LevelSet:
    """All level-k intervals, in spatial (= lexicographic address) order:
    the runs of `_runs` and their shared tail addresses.  Iteration and
    `nodes` make each `Node` on read; no `Node` is stored."""
    level: int
    tail: list[Address]
    runs: list[tuple]

    def __iter__(self) -> Iterator[Node]:
        return _nodes(self.tail, self.runs)

    def __len__(self) -> int:
        return len(self.tail) * len(self.runs)

    @property
    def nodes(self) -> list[Node]:
        """A new list of the level's nodes on every read."""
        return list(self)


@dataclass
class LevelStats:
    k: int
    count: int                 # number of level-k intervals
    length: Fraction           # common interval length at level k
    total_length: Fraction     # count * length
    max_gap: Fraction          # largest interior gap over all parents
    min_gap: Fraction          # smallest interior gap over all parents
    slack: Fraction            # per-parent interior gap budget


NO_SHRINK = (Fraction(0), Fraction(0))


def iter_level(spec: MoranSpec, k: int,
               shrink: tuple[Fraction, Fraction] = NO_SHRINK) -> Iterator[Node]:
    """Stream the level-k intervals left to right without materializing the
    level, each `Node` made from the runs of `_runs` as it is read.  Each
    interval loses shrink[0] on the left and shrink[1] on the right (the
    trimmed levels of `reconstruct`)."""
    return _nodes(*_runs(spec, k, shrink))


def _nodes(tail: list[Address], runs: Iterable[tuple]) -> Iterator[Node]:
    for head, den, span, base, offsets in runs:
        for address, off in zip(tail, offsets):
            lo = base + off
            yield Node(head + address, lo, lo + span, den)


#: Fewest intervals in a node-independent tail: the levels below each head
#: that `_runs` yields as one run and `rank` finds a query in by one bisect.
_TAIL = 2**10


def _split(spec: MoranSpec, k: int) -> int:
    """The level h of a level-k run's heads: the level above (0 at k = 0)
    on seeded gaps, else the deepest h < k whose tail, levels h+1..k below
    one head, holds at least `_TAIL` intervals, or 0 when none does."""
    h = max(k - 1, 0)
    while spec.gaps.node_independent and h and spec.count(k) < _TAIL * spec.count(h):
        h -= 1
    return h


def _runs(spec: MoranSpec, k: int, shrink: tuple[Fraction, Fraction]
          ) -> tuple[list[Address], Iterator[tuple]]:
    """The level's tail addresses and, lazily, one run per level-h head
    (h = `_split(spec, k)`): (head address, den, span, base, offsets), whose
    i-th interval is [base + offsets[i], base + offsets[i] + span] / den at
    head + tail[i].

    Node-independent gaps (and k = 0) read the offset table
    `_prescaled(spec, k)` and its cached tail `_tail(spec, k)`: each head
    adds up its own table entries, and the level has one denominator,
    lcm(M, origin's, length's), to which the tail is scaled when it is not
    M.  Seeded gaps take level k alone as the tail, below each level-(k-1)
    parent that `iter_level` streams with the same left trim, from the
    parent's own child offsets."""
    if k < 0:
        raise DomainError(f"depth {k} is out of range: levels start at depth 0")
    lo_pad, hi_pad = shrink
    origin = spec.interval[0] + lo_pad
    length = spec.delta(k) - lo_pad - hi_pad
    h = _split(spec, k)
    tail = list(product(*(range(1, spec.n(j) + 1) for j in range(h + 1, k + 1))))

    def runs() -> Iterator[tuple]:      # apart, so bad arguments raise at once
        if not (spec.gaps.node_independent or k == 0):
            for parent in iter_level(spec, h, (lo_pad, 0)):
                d, kids = spec.child_offsets(parent.address, k)
                m = lcm(parent.den, d, length.denominator)
                yield (parent.address, m, length.numerator * (m // length.denominator),
                       parent.lo_num * (m // parent.den),
                       [kid * (m // d) for kid in kids])
            return
        m, _, table = _prescaled(spec, k)
        _, offsets = _tail(spec, k)
        den = lcm(m, origin.denominator, length.denominator)
        heads = [nums for nums, _ in table[:h]]
        if den != m:
            scale = den // m
            heads = [[num * scale for num in nums] for nums in heads]
            offsets = [off * scale for off in offsets]
        span = length.numerator * (den // length.denominator)
        base = origin.numerator * (den // origin.denominator)
        for head, nums in zip(iter_addresses(spec, h), product(*heads)):
            yield head, den, span, base + sum(nums), offsets

    return tail, runs()


def rank(spec: MoranSpec, k: int, ys: Iterable[Fraction], find,
         den: int = 1) -> list[int]:
    """[find(xs, y / den) for y in ys] (`find` `bisect_right` or
    `bisect_left`) for the sorted list xs of level-k left endpoints, each y
    an int or a `Fraction`, by one descent per query: each level bisects
    the rest of the query, past the left endpoint of the parent it is in,
    against that parent's child offsets and subtracts the one it passes;
    the children left of it at level j add N_k / N_j each.  A batch of
    queries shares what the descent reads.

    Node-independent offsets are the table `_prescaled` and its tail
    `_tail`, integers over M, read once per call, so each query is rounded
    once, floor(y M) for `bisect_right` (x <= y iff x M <= floor(y M)) or
    ceil(y M) for `bisect_left`; it walks only the h = `_split(spec, k)`
    head levels, one bisect and one subtraction on integers each, and its
    rest below the head is one bisect of the tail's sorted offsets.  A
    seeded parent's own offsets are nums / d, so the rest stays exact,
    r = rn / rd, and each of the k levels bisects nums against r d by
    cross-multiplying: num <= r d iff num rd <= rn d.  Each seeded parent
    a call's queries pass through is drawn once per call."""
    ranks = []
    if spec.gaps.node_independent:
        m, lo, levels = _prescaled(spec, k)
        h, tail = _tail(spec, k)
        heads = levels[:h]
        up = find is bisect_left
        for y in ys:
            ym, yd = y.numerator * m, y.denominator * den
            r, total = (-(-ym // yd) if up else ym // yd) - lo, 0
            for nums, weight in heads:
                i = find(nums, r)
                if i == 0:
                    break
                total += (i - 1) * weight
                r -= nums[i - 1]
            else:
                total += find(tail, r)
            ranks.append(total)
        return ranks
    ln, ld = spec.interval[0].as_integer_ratio()
    weights = [spec.count(k) // spec.count(j) for j in range(k + 1)]
    drawn = {}                  # parent address -> its child offsets
    for y in ys:
        yd = y.denominator * den
        rn, rd, sigma, total = y.numerator * ld - ln * yd, yd * ld, (), 0
        for j in range(1, k + 1):
            if sigma not in drawn:
                drawn[sigma] = spec.child_offsets(sigma, j)
            d, nums = drawn[sigma]
            x = rn * d
            i = find(nums, x, key=lambda num: num * rd)
            if i == 0:
                break
            total += (i - 1) * weights[j]
            rn, rd = x - nums[i - 1] * rd, rd * d
            sigma += (i,)
        else:
            total += find((0,), rn)
        ranks.append(total)
    return ranks


@lru_cache(maxsize=256)
def _prescaled(spec: MoranSpec, k: int) -> tuple[int, int, tuple]:
    """(M, lo, ((nums, N_k / N_j) for j = 1..k)): the initial lo and the
    child offsets of levels 1..k, the same for every parent of a level
    under node-independent gaps, as numerators over M, the lcm of their
    denominators.  The one table of node-independent offsets: `rank`
    descends its head levels, `_tail` sums the rest.  Cached per spec and depth (a race
    computes one entry twice, so threads may share them)."""
    offsets = [spec.child_offsets((), j) for j in range(1, k + 1)]
    lo = spec.interval[0]
    m = lcm(lo.denominator, *(d for d, _ in offsets))
    return (m, lo.numerator * (m // lo.denominator),
            tuple((tuple(num * (m // d) for num in nums),
                   spec.count(k) // spec.count(j))
                  for j, (d, nums) in enumerate(offsets, 1)))


@lru_cache(maxsize=8)
def _tail(spec: MoranSpec, k: int) -> tuple[int, tuple[int, ...]]:
    """(h, offsets): h = `_split(spec, k)` and the sorted left-endpoint
    offsets, over the M of `_prescaled(spec, k)`, of the intervals of
    levels h+1..k below any level-h head, sums of that table's entries.
    `_runs` yields it, over the level's denominator, as every run's
    offsets, and `rank` finds in it by one bisect.  Cached per spec and
    depth like `_prescaled`: a tail holds fewer than `_TAIL` n_{h+1}
    integers (10^4 on `wide10`, 0.36 MB), and 8 tails cover an audit's
    levels ranked at once by up to 8 threads."""
    h = _split(spec, k)
    offsets = [0]
    for nums, _ in _prescaled(spec, k)[2][h:]:
        offsets = [off + num for off in offsets for num in nums]
    return h, tuple(offsets)


def build_level(spec: MoranSpec, k: int, budget: int = DEFAULT_NODE_BUDGET,
                shrink: tuple[Fraction, Fraction] = NO_SHRINK) -> LevelSet:
    """Materialize level k as the ordered runs of `_runs`, within the budget,
    which is checked before any run is walked."""
    tail, runs = _runs(spec, k, shrink)
    if spec.count(k) > budget:
        raise BudgetExceededError(
            f"level {k} has {spec.count(k)} intervals (> budget {budget}); "
            "use iter_level for streaming traversal")
    return LevelSet(k, tail, list(runs))


def level_stats(spec: MoranSpec, k: int,
                budget: int = DEFAULT_NODE_BUDGET) -> LevelStats:
    """Exact per-level statistics.

    The gap extremes range over every parent and every interior gap index;
    boundary gaps are excluded.  For node-independent gap policies a single
    parent suffices; otherwise all level-(k-1) addresses are enumerated.
    """
    if k < 1:
        raise DomainError(f"level {k} is out of range: level stats start at k = 1")
    slack = spec.slack(k)
    parents = stats_parents(spec, k, budget)
    n_gaps = spec.n(k) - 1
    widest = narrowest = None   # (w, total) pairs; a gap is slack * w / total
    for sigma in parents:
        weights = spec.gaps.gap_weights(sigma, k, n_gaps)
        total = sum(weights)
        hi, lo = max(weights), min(weights)
        if widest is None or hi * widest[1] > widest[0] * total:
            widest = hi, total
        if narrowest is None or lo * narrowest[1] < narrowest[0] * total:
            narrowest = lo, total
    count = spec.count(k)
    length = spec.delta(k)
    return LevelStats(k, count, length, count * length,
                      slack * widest[0] / widest[1],
                      slack * narrowest[0] / narrowest[1], slack)


def stats_parents(spec: MoranSpec, k: int,
                  budget: int = DEFAULT_NODE_BUDGET) -> Iterable[Address]:
    """The level-(k-1) parents whose gaps `level_stats(spec, k)` ranges over:
    the first alone for node-independent gaps, else all, within the budget."""
    if spec.gaps.node_independent:
        return [()]
    if spec.count(k - 1) > budget:
        raise BudgetExceededError(
            f"gap stats at level {k} need {spec.count(k - 1)} parents "
            f"(> budget {budget})")
    return iter_addresses(spec, k - 1)


def iter_addresses(spec: MoranSpec, k: int) -> Iterator[Address]:
    """All level-k addresses in lexicographic order."""
    return product(*(range(1, spec.n(j) + 1) for j in range(1, k + 1)))


# ---------------------------------------------------------------------------
# Serialization: line-delimited JSON records with exact "p/q" endpoints
# ---------------------------------------------------------------------------

#: Lines of a run that `export_level` joins into one write: 2**10 held
#: about 0.25 MB more at the peak of exporting `wide10` level 5, no faster.
_LINES = 2**8


def export_level(level: LevelSet, fp: IO[str]) -> None:
    """One record per line, byte for byte what `json.dumps` writes for
    {"level", "address", "lo", "hi"} with its default separators.  The
    address text is made once per head and once per tail address, and each
    endpoint is reduced from its run's integers as it is written, by one
    `gcd` and the text of the run's denominator over it, made once per run
    and divisor.  A run is written `_LINES` lines at a time, as one text."""
    start = f'{{"level": {level.level}, "address": ['
    tail = [", ".join(map(str, address)) for address in level.tail]
    for head, m, span, base, offsets in level.runs:
        prefix = start + "".join(f"{i}, " for i in head)
        dens = {}                       # g -> "/(m // g)"; each run has its m
        for at in range(0, len(offsets), _LINES):
            lines = []
            for address, off in zip(tail[at:at + _LINES], offsets[at:at + _LINES]):
                lo = base + off
                hi = lo + span
                g, h = gcd(lo, m), gcd(hi, m)
                lo_den = dens.get(g) or dens.setdefault(g, f"/{m // g}")
                hi_den = dens.get(h) or dens.setdefault(h, f"/{m // h}")
                lines.append(f'{prefix}{address}], "lo": "{lo // g}{lo_den}", '
                             f'"hi": "{hi // h}{hi_den}"}}\n')
            fp.write("".join(lines))
