"""Refinement schedules, balanced splitting, and the branch hierarchy."""

import tracemalloc
from fractions import Fraction
from itertools import accumulate, groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranset.branchtree import (Schedule, balanced_groups, build_T, choose_M,
                                 spread_bound)
from moranset.dimension import check_conditions
from moranset.errors import ConditionInapplicableError, DomainError
from moranset.oracle import oracle_hierarchy, oracle_stats
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


def _child_counts(tree, m):
    """(max, min) number of level-(m+1) branches inside a level-m branch."""
    counts = [len(kids) for _, kids in tree.families(m)]
    return max(counts), min(counts)


def test_wide10_T2_is_trimmed_level_1():
    spec = preset("wide10")
    sched = choose_M(spec, "A", 3)
    tree = build_T(spec, sched, 4)
    st2 = tree.branch_stats(2)
    assert st2.count == 10
    assert st2.total_len == 10 * Fraction(1, 20)
    assert st2.max_len == st2.min_len == Fraction(1, 20)
    most, _ = _child_counts(tree, 1)
    assert most <= 4 <= 9  # final step lands within M^2
    assert _child_counts(tree, 0)[0] <= sched.M
    assert _child_counts(tree, 1)[0] <= sched.M ** 2


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
    # first n_k intervals cost one path even where the level has 2^40;
    # stage 40's milestone level holds them as branches
    spec = preset("cantor3")
    sched = choose_M(spec, "A", 40)
    tree = build_T(spec, sched, 40, mode="auto")
    first, second = tree.levels[sched.m[40]]
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
    over it, the nodes read off the trimmed level."""
    top, = tree.star.level(0)
    (root,), *levels = tree.levels
    assert (root.lo, root.hi) == (top.lo, top.hi)
    trimmed = {k: list(tree.star.iter_level(k))
               for k in range(1, tree.schedule.stage_of(tree.m_max) + 1)}
    for k, nodes in trimmed.items():
        n_k = tree.spec.n(k)
        for a in range(0, len(nodes), n_k):
            assert len({nd.den for nd in nodes[a:a + n_k]}) == 1, (k, a)
    for m, level in enumerate(levels, 1):
        nodes = trimmed[tree.schedule.stage_of(m)]
        for br in level:
            assert Fraction(br.lo_num, br.den) == nodes[br.a].lo, (m, br)
            assert Fraction(br.hi_num, br.den) == nodes[br.b - 1].hi, (m, br)


@pytest.mark.parametrize("name,built", [
    (name, built) for name in preset_names() for built in ("explicit", "template")
    if built == "explicit" or preset(name).gaps.node_independent])
def test_children_are_one_run_per_parent(name, built):
    # `built` is the hierarchy's mode: mode "auto" builds a template on
    # node-independent gaps
    spec = preset(name)
    sched = choose_M(spec, "A", 3)
    tree = build_T(spec, sched, mode="auto" if built == "template" else "explicit")
    assert tree.mode == built
    assert_sibling_runs(tree.levels)
    assert_branches_on_sibling_dens(tree)
    for m in range(len(tree.levels) - 1):
        runs = list(tree.families(m))
        assert [kid for _, kids in runs for kid in kids] == tree.levels[m + 1]
        if built == "explicit":
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
    # condition B always applies; A does not where an interior gap is zero.
    # choose_M picks M >= 3, above every n_k <= 4 drawn, so each of its
    # stages is one step; M = 2 refines an n_k = 4 stage in two, splitting
    # its run into balanced groups
    steps = [spec.n(k).bit_length() - 1 for k in range(1, depth + 1)]
    mode = "auto" if template else "explicit"
    for sched in (choose_M(spec, "B", depth),
                  Schedule(2, steps, [0, *accumulate(steps)])):
        assert_branches_on_sibling_dens(build_T(spec, sched, mode=mode))


def test_branches_hold_integers_only():
    # an explicit tree keeps each branch's integers, no Fraction and no
    # second copy of a stage's trimmed nodes: 285 bytes held per branch
    spec = preset("skew10")
    sched = choose_M(spec, "A", 4)
    tracemalloc.start()
    try:
        tree = build_T(spec, sched, sched.m_max, mode="explicit")
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    branches = sum(len(level) for level in tree.levels)
    assert held / branches < 330, f"{held / branches:.0f} bytes per branch"


@pytest.mark.parametrize("spec", [
    preset("wide10"), preset("cantor3"), preset("dim1_binary"),
    preset("padded2"), _weighted9()], ids=lambda spec: spec.name)
def test_modes_agree(spec):
    # padded2 and weighted9 have nonzero boundary gaps, so the trimmed
    # children do not start where their trimmed parent does
    sched = choose_M(spec, "A", 4)
    expl = build_T(spec, sched, mode="explicit")
    tmpl = build_T(spec, sched, mode="auto")
    assert (expl.mode, tmpl.mode) == ("explicit", "template")
    for m in range(sched.m_max + 1):
        assert expl.branch_stats(m) == tmpl.branch_stats(m)
    for m in range(sched.m_max):
        assert _child_counts(expl, m) == _child_counts(tmpl, m)
    assert stats_series(expl) == stats_series(tmpl)


@given(level_specs(), st.booleans(), st.integers(2, 3))
@settings(max_examples=40, deadline=None)
def test_stats_match_oracle_twins(spec, template, depth):
    # condition B's schedule refines each stage in one step (M >= 3 > n_k);
    # M = 2 refines every n_k >= 3 stage in two, splitting 3 into groups of
    # 2 and 1, so families inside a stage share their parent's denominator,
    # milestone families do not, and some families have one child
    steps = [min(spec.n(k) - 1, 2) for k in range(1, depth + 1)]
    mode = "auto" if template else "explicit"
    for sched in (choose_M(spec, "B", depth),
                  Schedule(2, steps, [0, *accumulate(steps)])):
        tree = build_T(spec, sched, mode=mode)
        want = oracle_stats(spec, sched.M, sched.i, sched.m_max)
        got = stats_series(tree)
        assert (got.beta, got.theta, got.kappa, got.chi, got.lambda_star,
                got.lambda_under, got.gamma_star, got.gamma_under, got.l_T) == (
            want.beta, want.theta, want.kappa, want.chi, want.lambda_star,
            want.lambda_under, want.gamma_star, want.gamma_under, want.l_T)
        for m, row in enumerate(want.levels):
            bs = tree.branch_stats(m)
            assert (bs.count, bs.max_len, bs.min_len, bs.total_len,
                    bs.psi_max, bs.psi_min) == row, m
        if tree.mode == "explicit":
            assert [[(br.lo, br.hi, br.a, br.b, br.parent) for br in level]
                    for level in tree.levels] == oracle_hierarchy(
                        spec, sched.M, sched.i, sched.m_max)


@pytest.mark.parametrize("name,built", [("wide10", "template"), ("wide10", "explicit"),
                                        ("skew10", "explicit")])
def test_build_holds_levels_through_m_max(name, built):
    # every m_max, milestone or mid-stage, builds levels 0..m_max, the
    # same as the full hierarchy's
    spec = preset(name)
    sched = choose_M(spec, "A", 3)
    mode = "auto" if built == "template" else "explicit"
    full = build_T(spec, sched, mode=mode)
    assert full.mode == built
    for m_max in range(1, sched.m_max + 1):
        tree = build_T(spec, sched, m_max, mode=mode)
        assert len(tree.levels) == tree.m_max + 1 == m_max + 1
        for m in range(m_max + 1):
            assert tree.branch_stats(m) == full.branch_stats(m)


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


@pytest.mark.parametrize("name", ["wide10", "skew10"])
def test_build_defaults_to_the_schedule_top(name):
    spec = preset(name)
    sched = choose_M(spec, "A", 2)

    def fields(tree):
        return (tree.mode, [
            [(br.lo_num, br.hi_num, br.den, br.a, br.b, br.parent) for br in level]
            for level in tree.levels])
    assert fields(build_T(spec, sched)) == fields(build_T(spec, sched, sched.m_max))


@pytest.mark.parametrize("mode", ["template", "Explicit"])
def test_unknown_build_mode_rejected(mode):
    spec = preset("wide10")
    with pytest.raises(DomainError, match=f"unknown build mode {mode!r}"):
        build_T(spec, choose_M(spec, "A", 2), mode=mode)


def test_depth_guards():
    spec = preset("cantor3")
    sched = choose_M(spec, "A", 3)
    with pytest.raises(DomainError):
        build_T(spec, sched, 5)
    tree = build_T(spec, sched, 3)
    with pytest.raises(DomainError):
        list(tree.families(3))
