"""Trimmed-hierarchy identities and inequalities, all exact."""

from fractions import Fraction

import pytest

from moranset.errors import DegenerateSpecError
from moranset.oracle import oracle_gaps
from moranset.reconstruct import first_reconstruct
from moranset.specs import GapPolicy, MoranSpec, SequenceRule, constant, preset
from moranset.tree import level_stats


def test_zero_boundary_gaps_trim_is_identity():
    spec = preset("cantor3")
    star = first_reconstruct(spec, 6)
    for k in range(7):
        assert star.delta_star(k) == spec.delta(k)
    lv = star.level(2)
    assert [(n.lo, n.hi) for n in lv.nodes] == [
        (Fraction(0), Fraction(1, 9)), (Fraction(2, 9), Fraction(1, 3)),
        (Fraction(2, 3), Fraction(7, 9)), (Fraction(8, 9), Fraction(1))]
    assert star.stats(2).max_gap == Fraction(1, 9)


def test_padded2_trimmed_length():
    star = first_reconstruct(preset("padded2"), 4)
    # delta_1 = 1/4, boundary gaps at level 2 are 1/128 each
    assert star.delta_star(1) == Fraction(1, 4) - Fraction(2, 128)
    assert star.delta_star(1) == Fraction(15, 64)


def test_trimmed_slack_identity():
    # trimmed slack = base slack + (n - 1) * (boundary shift)
    spec = preset("padded2")
    star = first_reconstruct(spec, 4)
    for k in (1, 2, 3):
        base = level_stats(spec, k)
        st = star.stats(k)
        shift = spec.L(k + 1) + spec.R(k + 1)
        assert st.slack == base.slack + (spec.n(k) - 1) * shift
        assert st.max_gap == base.max_gap + shift
        assert st.min_gap == base.min_gap + shift


def test_trimmed_interval_boundary_gaps():
    # inside a trimmed parent, the first/last trimmed gaps are the next
    # level's boundary gaps
    spec = preset("padded2")
    star = first_reconstruct(spec, 3)
    parent = star.level(1).nodes[0]
    kids = [n for n in star.level(2).nodes if parent.lo <= n.lo <= parent.hi]
    assert kids[0].lo - parent.lo == spec.L(3)
    assert parent.hi - kids[-1].hi == spec.R(3)


@pytest.mark.parametrize("name,depth",
                         [("cantor3", 8), ("wide10", 8), ("skew10", 4),
                          ("padded2", 8)])
def test_gap_growth_and_domination(name, depth):
    # trimmed gaps dominate base gaps, and the inherited boundary gaps are
    # dominated by the smallest trimmed interior gap
    spec = preset(name)
    star = first_reconstruct(spec, depth)
    for k in range(1, depth + 1):
        base = level_stats(spec, k)
        st = star.stats(k)
        assert base.min_gap <= st.min_gap
        assert base.max_gap <= st.max_gap
        assert st.L + st.R <= st.min_gap <= st.max_gap


def test_containment_chain():
    # base level k+1 inside trimmed level k inside base level k
    spec = preset("padded2")
    star = first_reconstruct(spec, 3)
    from moranset.tree import build_level
    for k in (0, 1, 2):
        base = build_level(spec, k).nodes
        trimmed = star.level(k).nodes
        deeper = build_level(spec, k + 1).nodes
        for b, t in zip(base, trimmed):
            assert b.lo <= t.lo and t.hi <= b.hi
        for d in deeper:
            assert any(t.lo <= d.lo and d.hi <= t.hi for t in trimmed)


def test_trimmed_gaps_per_node():
    spec = preset("skew10")
    star = first_reconstruct(spec, 3)
    shift = spec.L(3) + spec.R(3)
    level = list(star.iter_level(2))
    for sigma in ((1,), (3,)):
        kids = [node for node in level if node.address[:-1] == sigma]
        gaps = tuple(nxt.lo - prev.hi for prev, nxt in zip(kids, kids[1:]))
        assert gaps == tuple(g + shift for g in oracle_gaps(spec, sigma, 2))


def test_degenerate_trim_rejected():
    big = SequenceRule("explicit-prefix",
                       (Fraction(0), Fraction(1, 2), Fraction(0)), name="L")
    spec = MoranSpec(constant(2), constant(Fraction(1, 4)), big, big,
                     GapPolicy("uniform"))
    with pytest.raises(DegenerateSpecError):
        first_reconstruct(spec, 1)
