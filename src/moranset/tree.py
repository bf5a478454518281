"""Exact enumeration of the level-k intervals of a Moran construction.

All public endpoints are reduced `fractions.Fraction`s; nothing in this
module rounds.  Levels can be materialized as lists (within a node budget)
or streamed in left-to-right order for deep constructions.

With a node-independent gap policy every parent places its children at the
same offsets, so internally a level is a lattice of integers over one
common denominator D_k: each left endpoint is the lo of the initial
interval plus one child offset per level, all scaled by D_k, and every
interval has the same length numerator.  `Node` endpoints are built from
those integers once, at the edge.  Seeded-random gaps differ per parent
and are placed by `walk`, which carries each parent's address and left
endpoint down the offsets of `MoranSpec.child_offsets`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm, prod
from typing import IO, Iterator

from .errors import BudgetExceededError, DomainError
from .specs import MoranSpec, format_rational

Address = tuple[int, ...]

#: Default cap on materialized intervals per level.
DEFAULT_NODE_BUDGET = 2**21


@dataclass(frozen=True)
class Node:
    """One level-k interval with its address."""
    address: Address
    lo: Fraction
    hi: Fraction

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo


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


def _check_level(k: int) -> None:
    if k < 0:
        raise DomainError(f"depth {k} is out of range: levels start at depth 0")


NO_SHRINK = (Fraction(0), Fraction(0))


def iter_level(spec: MoranSpec, k: int,
               shrink: tuple[Fraction, Fraction] = NO_SHRINK) -> Iterator[Node]:
    """Stream the level-k intervals left to right without materializing the
    level.  Each interval loses shrink[0] on the left and shrink[1] on the
    right (the trimmed levels of `reconstruct`)."""
    _check_level(k)
    if spec.gaps.node_independent:
        return _lattice_nodes(spec, k, shrink)
    return walk(spec, k, shrink)


def build_level(spec: MoranSpec, k: int, budget: int = DEFAULT_NODE_BUDGET,
                shrink: tuple[Fraction, Fraction] = NO_SHRINK) -> LevelSet:
    """Materialize level k as an ordered list of exact intervals."""
    _check_level(k)
    if spec.count(k) > budget:
        raise BudgetExceededError(
            f"level {k} has {spec.count(k)} intervals (> budget {budget}); "
            "use iter_level for streaming traversal")
    return LevelSet(k, list(iter_level(spec, k, shrink)))


def walk(spec: MoranSpec, k: int,
         shrink: tuple[Fraction, Fraction] = NO_SHRINK) -> Iterator[Node]:
    """Level k by placing every parent's children at its own offsets: the
    left boundary gap L_j, then children of length delta_j separated by
    the policy's interior gaps (`spec.child_offsets`).

    Lazy and depth-first, so the first n_k intervals are the children of
    the first parent and cost one root-to-leaf path.  Shrinking moves the
    origin right by shrink[0] and drops both pads from the length.
    """
    _check_level(k)
    lo_pad, hi_pad = shrink
    length = spec.delta(k) - lo_pad - hi_pad

    def place(address: Address, lo: Fraction) -> Iterator[Node]:
        if len(address) == k:
            yield Node(address, lo, lo + length)
            return
        for j, off in enumerate(spec.child_offsets(address, len(address) + 1), 1):
            yield from place(address + (j,), lo + off)

    return place((), spec.interval[0] + lo_pad)


def _lattice_nodes(spec: MoranSpec, k: int,
                   shrink: tuple[Fraction, Fraction]) -> Iterator[Node]:
    """Level k of a node-independent construction from its integer lattice.

    `den` is the lcm of every denominator involved, so the left endpoint of
    the interval with address (j_1, ..., j_k) is
    (origin + steps[0][j_1 - 1] + ... + steps[k-1][j_k - 1]) / den and its
    right endpoint adds the common length numerator.
    """
    lo_pad, hi_pad = shrink
    offsets = [spec.child_offsets((), j) for j in range(1, k + 1)]
    origin = spec.interval[0] + lo_pad
    length = spec.delta(k) - lo_pad - hi_pad
    den = lcm(origin.denominator, length.denominator,
              *(off.denominator for level in offsets for off in level))

    def scaled(x: Fraction) -> int:
        return x.numerator * (den // x.denominator)

    steps = [tuple(map(scaled, level)) for level in offsets]
    length = scaled(length)
    for address, lo in zip(iter_addresses(spec, k),
                           _lattice_sums(scaled(origin), steps)):
        yield Node(address, Fraction(lo, den), Fraction(lo + length, den))


def _lattice_sums(origin: int, steps: list[tuple[int, ...]]) -> Iterator[int]:
    """origin plus one entry of every step, over all choices in
    lexicographic order.

    The trailing steps whose outer sum first reaches the square root of the
    total count are expanded into one list; the leading steps recurse, so
    about sqrt(N) integers are held at once, never the whole level.
    """
    if not steps:
        yield origin
        return
    total = prod(map(len, steps))
    h, tail = len(steps), [0]
    while len(tail) ** 2 < total:
        h -= 1
        tail = [b + a for b in steps[h] for a in tail]
    for head in _lattice_sums(origin, steps[:h]):
        yield from map(head.__add__, tail)


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
    {"level", "address", "lo", "hi"} with its default separators."""
    k = level.level
    fp.writelines(
        f'{{"level": {k}, "address": [{", ".join(map(str, node.address))}], '
        f'"lo": "{format_rational(node.lo)}", "hi": "{format_rational(node.hi)}"}}\n'
        for node in level.nodes)

