"""Refinement schedules, balanced splitting, and the branch hierarchy."""

import tracemalloc
from fractions import Fraction
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranset.branchtree import balanced_groups, build_T, choose_M, spread_bound
from moranset.dimension import check_conditions
from moranset.errors import ConditionInapplicableError, DomainError
from moranset.qsmap import image_tree, parse_map, stats_series
from moranset.specs import (GapPolicy, MoranSpec, SequenceRule, constant,
                            preset, preset_names)
from test_tree import level_specs


def test_choose_M_cantor3():
    sched = choose_M(preset("cantor3"), "A", 6)
    assert sched.M == 3
    assert sched.i == [1] * 6
    assert sched.m == list(range(7))


def test_choose_M_wide10():
    sched = choose_M(preset("wide10"), "A", 4)
    assert sched.M == 3
    assert sched.i == [2, 2, 2, 2]
    assert sched.m == [0, 2, 4, 6, 8]


def test_choose_M_condition_B():
    # cantor3 certifies omega2 = 1, so the bound 2*(omega2+1) = 4 gives M = 5
    spec = preset("cantor3")
    sched = choose_M(spec, "B", 4)
    assert sched.M == 5
    assert spread_bound("B", check_conditions(spec, 4).omega2) == 4


def test_choose_M_inapplicable():
    spec = MoranSpec(constant(3), constant(Fraction(1, 4)),
                     constant(Fraction(0)), constant(Fraction(0)),
                     GapPolicy("weighted", weights=(Fraction(0), Fraction(1))))
    with pytest.raises(ConditionInapplicableError):
        choose_M(spec, "A", 3)
    with pytest.raises(DomainError):
        choose_M(preset("cantor3"), "C", 3)


@given(st.integers(1, 4000), st.integers(2, 9))
@settings(max_examples=80)
def test_balanced_groups_property(q, M):
    groups = balanced_groups(q, M)
    assert len(groups) == M and sum(groups) == q
    assert max(groups) - min(groups) <= 1
    assert groups == sorted(groups, reverse=True)


def test_wide10_intermediate_split():
    spec = preset("wide10")
    sched = choose_M(spec, "A", 3)
    tree = build_T(spec, sched, 4)
    st1 = tree.branch_stats(1)
    assert (st1.psi_max, st1.psi_min) == (4, 3)
    assert st1.count == 3
    # hull of 4 children and 3 gaps vs 3 children and 2 gaps
    d1, a1 = Fraction(1, 20), Fraction(1, 18)
    assert st1.max_len == 4 * d1 + 3 * a1
    assert st1.min_len == 3 * d1 + 2 * a1


def test_wide10_T2_is_trimmed_level_1():
    spec = preset("wide10")
    sched = choose_M(spec, "A", 3)
    tree = build_T(spec, sched, 4)
    st2 = tree.branch_stats(2)
    assert st2.count == 10
    assert st2.total_len == 10 * Fraction(1, 20)
    assert st2.max_len == st2.min_len == Fraction(1, 20)
    lo, hi = tree.children_per_branch(1)
    assert lo <= 4 <= 9  # final step lands within M^2
    assert max(tree.children_per_branch(0)) <= sched.M
    assert max(tree.children_per_branch(1)) <= sched.M ** 2


def test_cantor3_levels_equal_trimmed_levels():
    spec = preset("cantor3")
    sched = choose_M(spec, "A", 6)
    tree = build_T(spec, sched, 6)
    for m in range(7):
        bs = tree.branch_stats(m)
        assert bs.count == 2 ** m
        assert bs.total_len == Fraction(2, 3) ** m
        assert bs.max_len == bs.min_len == Fraction(1, 3 ** m)


def test_template_stages_at_depth_40():
    # the template stages come from the streamed trimmed level, whose
    # first n_k intervals cost one path even where the level has 2^40
    spec = preset("cantor3")
    sched = choose_M(spec, "A", 40)
    tree = build_T(spec, sched, 40, mode="template")
    first, second = tree.stages[40]
    assert (first.lo, first.hi) == (0, Fraction(1, 3 ** 40))
    assert (second.lo, second.hi) == (Fraction(2, 3 ** 40), Fraction(1, 3 ** 39))


def _weighted9() -> MoranSpec:
    """Unequal interior gaps, and boundary gaps that shrink with the level."""
    def pad(den):
        return SequenceRule("table-function",
                            func=lambda k: Fraction(1, den * 18 ** (k - 1)))
    return MoranSpec(constant(9), constant(Fraction(1, 18)), pad(40), pad(60),
                     GapPolicy("weighted", weights=(Fraction(3), Fraction(4))),
                     name="weighted9")


def assert_sibling_runs(levels) -> None:
    """Each level's parent indices are non-decreasing, so every branch that
    has children has them as exactly one contiguous run of the next level."""
    for m in range(1, len(levels)):
        parents = [br.parent for br in levels[m]]
        assert parents == sorted(parents), f"level {m}"
        runs = [i for i, _ in groupby(parents)]
        assert len(runs) == len(set(runs)), f"level {m}"
        assert 0 <= runs[0] and runs[-1] < len(levels[m - 1]), f"level {m}"


def assert_branches_on_sibling_dens(tree) -> None:
    """Each run of siblings in a stage shares one denominator, and every
    branch holds its first node's `lo_num` and its last node's `hi_num`
    over it."""
    top, = tree.star.level(0)
    (root,), *levels = tree.levels
    assert (root.lo, root.hi) == (top.lo, top.hi)
    for k, nodes in tree.stages.items():
        n_k = tree.spec.n(k)
        for a in range(0, len(nodes), n_k):
            assert len({nd.den for nd in nodes[a:a + n_k]}) == 1, (k, a)
    for m, level in enumerate(levels, 1):
        nodes = tree.stages[tree.schedule.stage_of(m)]
        for br in level:
            assert Fraction(br.lo_num, br.den) == nodes[br.a].lo, (m, br)
            assert Fraction(br.hi_num, br.den) == nodes[br.b - 1].hi, (m, br)


@pytest.mark.parametrize("name,mode", [
    (name, mode) for name in preset_names() for mode in ("explicit", "template")
    if mode == "explicit" or preset(name).gaps.node_independent])
def test_children_are_one_run_per_parent(name, mode):
    spec = preset(name)
    sched = choose_M(spec, "A", 3)
    tree = build_T(spec, sched, sched.m_max, mode=mode)
    assert_sibling_runs(tree.levels)
    assert_branches_on_sibling_dens(tree)
    for m in range(len(tree.levels) - 1):
        runs = list(tree.families(m))
        assert [kid for _, kids in runs for kid in kids] == tree.levels[m + 1]
        if mode == "explicit":
            # every branch of an explicit level is refined, in order
            assert [br for br, _ in runs] == tree.levels[m]


@pytest.mark.parametrize("name", preset_names())
def test_image_children_are_one_run_per_parent(name):
    spec = preset(name)
    sched = choose_M(spec, "A", 3)
    tree = build_T(spec, sched, sched.m_max, mode="explicit")
    image = image_tree(parse_map("power:1/2"), tree)
    assert_sibling_runs(image.levels)
    assert ([[br.parent for br in level] for level in image.levels]
            == [[br.parent for br in level] for level in tree.levels])


@given(level_specs(), st.booleans(), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_branches_read_sibling_integers(spec, template, depth):
    # condition B always applies; A does not where an interior gap is zero
    sched = choose_M(spec, "B", depth)
    mode = "template" if template and spec.gaps.node_independent else "explicit"
    assert_branches_on_sibling_dens(build_T(spec, sched, sched.m_max, mode=mode))


def test_branches_hold_integers_only():
    # an explicit tree keeps its stages' nodes and each branch's integers,
    # no Fraction: 410 bytes held per branch, 529 with Fraction endpoints
    spec = preset("skew10")
    sched = choose_M(spec, "A", 4)
    tracemalloc.start()
    try:
        tree = build_T(spec, sched, sched.m_max, mode="explicit")
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    branches = sum(len(level) for level in tree.levels)
    assert held / branches < 470, f"{held / branches:.0f} bytes per branch"


@pytest.mark.parametrize("spec", [
    preset("wide10"), preset("cantor3"), preset("dim1_binary"),
    preset("padded2"), _weighted9()], ids=lambda spec: spec.name)
def test_modes_agree(spec):
    # padded2 and weighted9 have nonzero boundary gaps, so the trimmed
    # children do not start where their trimmed parent does
    sched = choose_M(spec, "A", 4)
    top = sched.m_max - 1
    expl = build_T(spec, sched, top, mode="explicit")
    tmpl = build_T(spec, sched, top, mode="template")
    assert (expl.mode, tmpl.mode) == ("explicit", "template")
    for m in range(top + 1):
        assert expl.branch_stats(m) == tmpl.branch_stats(m)
    assert stats_series(expl) == stats_series(tmpl)
    for m in range(top):
        assert expl.children_per_branch(m) == tmpl.children_per_branch(m)
    assert stats_series(expl, m_top=top) == stats_series(tmpl, m_top=top)


def test_explicit_mode_for_seeded_gaps():
    spec = preset("skew10")
    sched = choose_M(spec, "A", 2)
    top = sched.m_max
    tree = build_T(spec, sched, top, mode="explicit")
    st1 = tree.branch_stats(sched.m[1])
    assert st1.count == 10
    assert st1.total_len == Fraction(1, 2)
    bound = spread_bound("A", check_conditions(spec, 2).omega1)
    for m in range(top + 1):
        bs = tree.branch_stats(m)
        assert bs.max_len <= bound * bs.min_len


@pytest.mark.parametrize("name,cond", [("wide10", "A"), ("cantor3", "A"),
                                       ("cantor3", "B"), ("padded2", "A")])
def test_length_comparability(name, cond):
    spec = preset(name)
    sched = choose_M(spec, cond, 4)
    tree = build_T(spec, sched, sched.m[4])
    bound = spread_bound(cond, check_conditions(spec, 4).omega(cond))
    for m in range(sched.m[4] + 1):
        bs = tree.branch_stats(m)
        assert bs.max_len <= bound * bs.min_len
        assert bs.psi_max - bs.psi_min <= 1


def test_total_length_sandwich_and_monotonicity():
    spec = preset("wide10")
    cert = check_conditions(spec, 5)
    sched = choose_M(spec, "A", 4, cert=cert)
    tree = build_T(spec, sched, sched.m[4])
    star = tree.star
    totals = [tree.branch_stats(m).total_len for m in range(sched.m[4] + 1)]
    assert all(b <= a for a, b in zip(totals, totals[1:]))
    lower_factor = 1 - 2 * cert.omega1 / sched.M
    for k in range(1, 5):
        # milestone identity
        assert totals[sched.m[k]] == spec.count(k) * star.delta_star(k)
        # intermediate sandwich against the previous milestone
        anchor = spec.count(k - 1) * star.delta_star(k - 1)
        for m in range(sched.m[k - 1] + 1, sched.m[k]):
            assert lower_factor * anchor <= totals[m] <= anchor


def test_depth_guards():
    spec = preset("cantor3")
    sched = choose_M(spec, "A", 3)
    with pytest.raises(DomainError):
        build_T(spec, sched, 5)
    tree = build_T(spec, sched, 3)
    with pytest.raises(DomainError):
        list(tree.families(3))
