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
and are placed by walking the parents with `children_of`.
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


def children_of(spec: MoranSpec, node: Node, k: int) -> list[Node]:
    """The level-k children of a level-(k-1) node, in order, placed at
    `spec.child_offsets`: the left boundary gap L_k, then children of length
    delta_k separated by the policy's interior gaps.  The right boundary gap
    R_k closes exactly because the interior gaps sum to the slack."""
    child_len = spec.delta(k)
    out = []
    for j, off in enumerate(spec.child_offsets(node.address, k), start=1):
        lo = node.lo + off
        out.append(Node(node.address + (j,), lo, lo + child_len))
    return out


def root(spec: MoranSpec) -> Node:
    return Node((), spec.interval[0], spec.interval[1])


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
    nodes = _walk(spec, root(spec), 0, k)
    if shrink == NO_SHRINK:
        return nodes
    lo_pad, hi_pad = shrink
    return (Node(n.address, n.lo + lo_pad, n.hi - hi_pad) for n in nodes)


def build_level(spec: MoranSpec, k: int, budget: int = DEFAULT_NODE_BUDGET,
                shrink: tuple[Fraction, Fraction] = NO_SHRINK) -> LevelSet:
    """Materialize level k as an ordered list of exact intervals."""
    _check_level(k)
    if spec.count(k) > budget:
        raise BudgetExceededError(
            f"level {k} has {spec.count(k)} intervals (> budget {budget}); "
            "use iter_level for streaming traversal")
    return LevelSet(k, list(iter_level(spec, k, shrink)))


def _walk(spec: MoranSpec, node: Node, depth: int, k: int) -> Iterator[Node]:
    """Per-parent placement, for gaps that differ between parents."""
    if depth == k:
        yield node
        return
    for child in children_of(spec, node, depth + 1):
        yield from _walk(spec, child, depth + 1, k)


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
    addresses = product(*(range(1, len(step) + 1) for step in steps))
    for address, lo in zip(addresses, _lattice_sums(scaled(origin), steps)):
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
    if spec.gaps.node_independent:
        gaps = spec.interior_gaps((), k)
        max_gap, min_gap = max(gaps), min(gaps)
    else:
        if spec.count(k - 1) > budget:
            raise BudgetExceededError(
                f"gap stats at level {k} need {spec.count(k - 1)} parents "
                f"(> budget {budget})")
        max_gap = min_gap = None
        for sigma in iter_addresses(spec, k - 1):
            gaps = spec.interior_gaps(sigma, k)
            lo, hi = min(gaps), max(gaps)
            if max_gap is None or hi > max_gap:
                max_gap = hi
            if min_gap is None or lo < min_gap:
                min_gap = lo
    count = spec.count(k)
    length = spec.delta(k)
    return LevelStats(k, count, length, count * length, max_gap, min_gap, slack)


def iter_addresses(spec: MoranSpec, k: int) -> Iterator[Address]:
    """All level-k addresses in lexicographic order."""
    def walk(prefix: Address, depth: int) -> Iterator[Address]:
        if depth == k:
            yield prefix
            return
        for j in range(1, spec.n(depth + 1) + 1):
            yield from walk(prefix + (j,), depth + 1)
    yield from walk((), 0)


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

