"""Exact enumeration of the level-k intervals of a Moran construction.

Every interval of the package, a level node, a branch of the second
reconstruction and its image under a map, is one record, `Interval`: two
integer numerators over one shared, unreduced denominator, whose `lo`, `hi`
and `length` read them as reduced `fractions.Fraction`s.  `Node` adds the
address.  Nothing in this module rounds.  Levels can be materialized as
lists (within a node budget) or streamed in left-to-right order for deep
constructions.

A left endpoint is the initial lo plus one integer child offset per level
(`MoranSpec.child_offsets`); one kernel, `iter_level`, serves every gap
policy and hands those integers to `Node` as they are.  The bulk consumers,
`export_level` and `dimension.box_count`, read the integers directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import IO, Iterator

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
    """All level-k intervals, in spatial (= lexicographic address) order."""
    level: int
    nodes: list[Node]

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)


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
    level.  Each interval loses shrink[0] on the left and shrink[1] on the
    right (the trimmed levels of `reconstruct`).

    `_walk` gives the level-h heads lazily, and below one head the tail,
    levels h+1..k, as a list of numerators over one denominator, translated
    per head: node-independent gaps take the trailing levels whose count
    first reaches `_TAIL` and share that list, per-node gaps take each
    head's own children."""
    if k < 0:
        raise DomainError(f"depth {k} is out of range: levels start at depth 0")
    lo_pad, hi_pad = shrink
    origin = spec.interval[0] + lo_pad
    length = spec.delta(k) - lo_pad - hi_pad
    shared = spec.gaps.node_independent
    h = max(k - 1, 0)
    while shared and h and spec.count(k) < _TAIL * spec.count(h):
        h -= 1

    def nodes() -> Iterator[Node]:      # apart, so bad arguments raise at once
        addresses = iter_addresses(spec, k)
        tail = None
        for sigma, num, den in _walk(spec, h, (), *origin.as_integer_ratio()):
            if tail is None or not shared:
                tail, dens = zip(*((off, d) for _, off, d in
                                   _walk(spec, k, sigma, 0, 1)))
            tail_den = dens[0]
            m = lcm(den, tail_den, length.denominator)
            base, scale = num * (m // den), m // tail_den
            span = length.numerator * (m // length.denominator)
            for off, address in zip(tail, addresses):
                lo = base + off * scale
                yield Node(address, lo, lo + span, m)

    return nodes()


#: Fewest intervals in a node-independent tail of `iter_level`.
_TAIL = 2**10


def _walk(spec: MoranSpec, depth: int, sigma: Address, num: int,
          den: int) -> Iterator[tuple[Address, int, int]]:
    """(address, lo numerator, denominator) of each level-`depth` interval
    below sigma (lo num / den) in order, lazily: the first costs one path."""
    if len(sigma) == depth:
        yield sigma, num, den
        return
    d, offsets = spec.child_offsets(sigma, len(sigma) + 1)
    m = lcm(den, d)
    for i, off in enumerate(offsets, 1):
        yield from _walk(spec, depth, sigma + (i,), num * (m // den) + off * (m // d), m)


def build_level(spec: MoranSpec, k: int, budget: int = DEFAULT_NODE_BUDGET,
                shrink: tuple[Fraction, Fraction] = NO_SHRINK) -> LevelSet:
    """Materialize level k as an ordered list of exact intervals."""
    nodes = iter_level(spec, k, shrink)
    if spec.count(k) > budget:
        raise BudgetExceededError(
            f"level {k} has {spec.count(k)} intervals (> budget {budget}); "
            "use iter_level for streaming traversal")
    return LevelSet(k, list(nodes))


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
    parents = [()]
    if not spec.gaps.node_independent:
        if spec.count(k - 1) > budget:
            raise BudgetExceededError(
                f"gap stats at level {k} need {spec.count(k - 1)} parents "
                f"(> budget {budget})")
        parents = iter_addresses(spec, k - 1)
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


def iter_addresses(spec: MoranSpec, k: int) -> Iterator[Address]:
    """All level-k addresses in lexicographic order."""
    return product(*(range(1, spec.n(j) + 1) for j in range(1, k + 1)))


# ---------------------------------------------------------------------------
# Serialization: line-delimited JSON records with exact "p/q" endpoints
# ---------------------------------------------------------------------------

def export_level(level: LevelSet, fp: IO[str]) -> None:
    """One record per line, byte for byte what `json.dumps` writes for
    {"level", "address", "lo", "hi"} with its default separators; each
    endpoint is reduced from its node's integers as it is written."""
    head = f'{{"level": {level.level}, "address": ['
    # an address's repr, brackets cut, is its JSON list body: "1, 2" from
    # (1, 2), but "1," from the one-tuple (1,)
    cut = -2 if level.level == 1 else -1

    def lines() -> Iterator[str]:
        for node in level.nodes:
            m, lo, hi = node.den, node.lo_num, node.hi_num
            g, h = gcd(lo, m), gcd(hi, m)
            yield (f'{head}{repr(node.address)[1:cut]}], '
                   f'"lo": "{lo // g}/{m // g}", "hi": "{hi // h}/{m // h}"}}\n')

    fp.writelines(lines())
