"""First reconstruction: trim every interval by the next level's boundary gaps.

The trimmed ("star") interval of a level-k node drops L_{k+1} on the left and
R_{k+1} on the right, so its children's boundary gaps migrate into the
interior gaps of the parent.  Every trimmed quantity reads `StarState.trim`.
All derived identities are exact-rational; `StarState.rank` takes its query
as an integer over a denominator, so an audit's windows stay integers
through the trim into `tree.rank`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import DegenerateSpecError, DomainError
from .specs import MoranSpec
from .tree import (LevelSet, LevelStats, Node, build_level, iter_level,
                   level_stats, rank)


@dataclass
class StarStats(LevelStats):
    """Level statistics of the trimmed level k >= 1 (the count is unchanged
    by trimming)."""
    L: Fraction                 # boundary gap inherited from level k+1
    R: Fraction


class StarState:
    """Trimmed quantities of a construction through a fixed depth K.

    Trimmed level sets are derived lazily from the base levels plus the two
    boundary-gap shifts; only endpoints differ.
    """

    def __init__(self, spec: MoranSpec, K: int):
        if K < 0:
            raise DomainError(f"depth {K} is out of range: trimming needs depth >= 0")
        self.spec = spec
        self._trims: dict[int, tuple[Fraction, Fraction, Fraction]] = {}
        self._stats: dict[int, StarStats] = {}
        for k in range(K + 1):
            if self.delta_star(k) <= 0:
                raise DegenerateSpecError(
                    f"trimmed length at level {k} is {self.delta_star(k)} <= 0; "
                    "the construction degenerates")

    # -- per-level scalars --------------------------------------------------

    def trim(self, k: int) -> tuple[Fraction, Fraction, Fraction]:
        """(L_{k+1}, R_{k+1}, delta*_k): level k's trim and trimmed length,
        cached per level (idempotently, so threads may share a state)."""
        if k not in self._trims:
            L, R = self.spec.L(k + 1), self.spec.R(k + 1)
            self._trims[k] = L, R, self.spec.delta(k) - L - R
        return self._trims[k]

    def delta_star(self, k: int) -> Fraction:
        return self.trim(k)[2]

    def stats(self, k: int) -> StarStats:
        if k not in self._stats:
            base = level_stats(self.spec, k)
            L, R, length = self.trim(k)
            self._stats[k] = StarStats(
                k, base.count, length, base.count * length,
                base.max_gap + L + R, base.min_gap + L + R,
                base.slack + (self.spec.n(k) - 1) * (L + R), L, R)
        return self._stats[k]

    # -- trimmed intervals --------------------------------------------------

    def level(self, k: int) -> LevelSet:
        return build_level(self.spec, k, shrink=self.trim(k)[:2])

    def iter_level(self, k: int) -> Iterator[Node]:
        return iter_level(self.spec, k, self.trim(k)[:2])

    def rank(self, k: int, y: Fraction, find, den: int = 1) -> int:
        """`tree.rank` over the trimmed level-k left endpoints, for y / den
        (y an int or a `Fraction`)."""
        ln, ld = self.trim(k)[0].as_integer_ratio()
        den *= y.denominator
        return rank(self.spec, k, y.numerator * ld - ln * den, find, den * ld)

    def interior_gaps(self, sigma: tuple[int, ...], k: int) -> tuple[Fraction, ...]:
        """Trimmed interior gaps of parent sigma at level k: each base gap
        plus the children's trimmed-off boundary gaps L_{k+1} + R_{k+1}."""
        shift = sum(self.trim(k)[:2])
        return tuple(g + shift for g in self.spec.interior_gaps(sigma, k))


def first_reconstruct(spec: MoranSpec, K: int) -> StarState:
    """Trim levels 0..K.  Level-K trimmed gaps reference the L/R rules at
    K+1, so the rules must be evaluable through K+1."""
    return StarState(spec, K)
