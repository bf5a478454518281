"""Exact enumeration of the level-k intervals of a Moran construction.

All endpoints are `fractions.Fraction`; nothing in this module rounds.
Levels can be materialized as lists (within a node budget) or streamed in
left-to-right order for deep constructions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable, Iterator

from .errors import BudgetExceededError, DomainError, ParseError
from .specs import MoranSpec, format_rational, parse_rational

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
    """The level-k children of a level-(k-1) node, in order.

    Placement: left boundary gap L_k, then children of length delta_k
    separated by the policy's interior gaps, then right boundary gap R_k.
    The right boundary closes exactly because the interior gaps sum to the
    slack by construction.
    """
    n = spec.n(k)
    child_len = spec.delta(k)
    gaps = spec.interior_gaps(node.address, k)
    out = []
    lo = node.lo + spec.L(k)
    for j in range(1, n + 1):
        hi = lo + child_len
        out.append(Node(node.address + (j,), lo, hi))
        if j < n:
            lo = hi + gaps[j - 1]
    return out


def root(spec: MoranSpec) -> Node:
    return Node((), spec.interval[0], spec.interval[1])


def _check_level(k: int) -> None:
    if k < 0:
        raise DomainError(f"depth {k} is out of range: levels start at depth 0")


def iter_level(spec: MoranSpec, k: int) -> Iterator[Node]:
    """Stream the level-k intervals left to right without materializing the level."""
    _check_level(k)

    def walk(node: Node, depth: int) -> Iterator[Node]:
        if depth == k:
            yield node
            return
        for child in children_of(spec, node, depth + 1):
            yield from walk(child, depth + 1)
    yield from walk(root(spec), 0)


def build_level(spec: MoranSpec, k: int,
                budget: int = DEFAULT_NODE_BUDGET) -> LevelSet:
    """Materialize level k as an ordered list of exact intervals."""
    _check_level(k)
    if spec.count(k) > budget:
        raise BudgetExceededError(
            f"level {k} has {spec.count(k)} intervals (> budget {budget}); "
            "use iter_level for streaming traversal")
    nodes = [root(spec)]
    for depth in range(1, k + 1):
        nodes = [c for parent in nodes for c in children_of(spec, parent, depth)]
    return LevelSet(k, nodes)


def level_stats(spec: MoranSpec, k: int,
                budget: int = DEFAULT_NODE_BUDGET) -> LevelStats:
    """Exact per-level statistics.

    The gap extremes range over every parent and every interior gap index;
    boundary gaps are excluded.  For node-independent gap policies a single
    parent suffices; otherwise all level-(k-1) addresses are enumerated.
    """
    if k < 1:
        raise ValueError("level stats start at k = 1")
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
    for node in level.nodes:
        fp.write(json.dumps({
            "level": level.level,
            "address": list(node.address),
            "lo": format_rational(node.lo),
            "hi": format_rational(node.hi),
        }) + "\n")


def import_level(fp: IO[str]) -> LevelSet:
    nodes = []
    level = None
    for lineno, line in enumerate(fp, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            k = int(rec["level"])
            address = tuple(int(i) for i in rec["address"])
            lo = parse_rational(rec["lo"])
            hi = parse_rational(rec["hi"])
        except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
            raise ParseError(f"bad interval record: {exc}", line=lineno)
        if lo > hi:
            raise ParseError(f"lo {lo} > hi {hi}", line=lineno)
        if level is None:
            level = k
        elif k != level:
            raise ParseError(f"mixed levels {level} and {k}", line=lineno)
        nodes.append(Node(address, lo, hi))
    if level is None:
        raise ParseError("empty interval file")
    return LevelSet(level, nodes)
