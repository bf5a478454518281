"""Dimension series, condition certificates, cover sums, box counting."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moranset.branchtree import choose_M
from moranset.dimension import (box_count, check_conditions, cover_sum,
                                dim_formula_seq, log_fraction, power_ratio)
from moranset.errors import ConditionInapplicableError, DomainError
from moranset.oracle import (dim1_binary_s, naive_box_count, oracle_conditions,
                             oracle_schedule)
from moranset.reconstruct import StarState, first_reconstruct
from moranset.specs import GapPolicy, MoranSpec, SequenceRule, constant, preset
from moranset.tree import Node, build_level, iter_level
from test_tree import level_specs

LOG2_3 = math.log(2) / math.log(3)


def test_log_fraction_large_values():
    x = Fraction(3 ** 400, 2 ** 500)
    assert math.isclose(log_fraction(x), 400 * math.log(3) - 500 * math.log(2))
    with pytest.raises(DomainError):
        log_fraction(Fraction(0))


def test_cantor3_series_constant():
    series = dim_formula_seq(preset("cantor3"), 20)
    assert all(abs(s - LOG2_3) < 1e-12 for s in series.s)
    assert abs(series.tail_min - LOG2_3) < 1e-12


def test_single_level():
    series = dim_formula_seq(preset("cantor3"), 1)
    assert abs(series.value(1) - LOG2_3) < 1e-12


def test_dim1_binary_matches_oracle():
    series = dim_formula_seq(preset("dim1_binary"), 40)
    expected = dim1_binary_s(40)
    assert all(abs(a - b) < 1e-12 for a, b in zip(series.s, expected))
    # frozen from the closed form: the series approaches 1 from below
    assert abs(series.value(40) - 0.9867189409910724) < 1e-9


def test_no_contraction_rejected():
    flat = MoranSpec(constant(2), constant(Fraction(1)),
                     constant(Fraction(0)), constant(Fraction(0)),
                     GapPolicy("uniform"))
    with pytest.raises(DomainError):
        dim_formula_seq(flat, 2)


def test_conditions_cantor3():
    cert = check_conditions(preset("cantor3"), 8)
    assert cert.omega1 == 1
    assert cert.omega2 == 1
    assert cert.omega3 == Fraction(2, 3)
    assert all(map(cert.applies, "ABC"))


def test_conditions_wide10():
    cert = check_conditions(preset("wide10"), 8)
    assert cert.omega1 == 1
    assert cert.omega2 == Fraction(10, 9)
    assert cert.omega2_witness == 1


def test_condition_a_inapplicable_on_zero_gap():
    # omega1 is undefined and omega3 is 0: neither certifies anything
    spec = MoranSpec(constant(3), constant(Fraction(1, 4)),
                     constant(Fraction(0)), constant(Fraction(0)),
                     GapPolicy("weighted", weights=(Fraction(0), Fraction(1))))
    cert = check_conditions(spec, 4)
    assert (cert.omega1, cert.omega3) == (None, 0)
    for condition in "AC":
        with pytest.raises(ConditionInapplicableError):
            cert.omega(condition)
    assert cert.omega("B") == cert.omega2
    assert cert.to_dict()["applicable"] == {"A": False, "B": True, "C": False}


_ZERO_GAP_BELOW_LEVEL_ONE = MoranSpec(
    SequenceRule("periodic", (2, 3)), constant(Fraction(1, 5)),
    constant(Fraction(0)), constant(Fraction(0)),
    GapPolicy("weighted", weights=(Fraction(1), Fraction(0))))


def test_zero_gap_below_level_one():
    # weights 1, 0 leave a zero gap on the 3-child levels 2 and 4 only:
    # omega1 is undefined although level 1 has a ratio, and the ties of
    # omega2 (levels 1 and 3) and omega3 (levels 2 and 4) go to the first
    cert = check_conditions(_ZERO_GAP_BELOW_LEVEL_ONE, 4)
    assert (cert.omega1, cert.omega1_witness) == (None, None)
    assert (cert.omega2, cert.omega2_witness) == (3, 1)
    assert (cert.omega3, cert.omega3_witness) == (0, 2)


def test_certificates_are_tight():
    cert = check_conditions(preset("skew10"), 4)
    from moranset.tree import level_stats
    spec = preset("skew10")
    k = cert.omega1_witness
    st = level_stats(spec, k)
    assert st.max_gap == cert.omega1 * st.min_gap
    k2 = cert.omega2_witness
    st2 = level_stats(spec, k2)
    assert st2.max_gap == cert.omega2 * spec.delta(k2)
    k3 = cert.omega3_witness
    st3 = level_stats(spec, k3)
    assert spec.n(k3) * st3.min_gap == cert.omega3 * spec.delta(k3 - 1)


@given(level_specs(), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
@example(_ZERO_GAP_BELOW_LEVEL_ONE, 4)
@example(preset("skew10"), 2)
def test_conditions_match_oracle_twin(spec, K):
    # the constants, their first witnesses and both schedules, against the
    # twin that reads every parent's gaps off the oracle's level lists
    cert = check_conditions(spec, K)
    twin = oracle_conditions(spec, K)
    assert vars(twin) == {f: v for f, v in vars(cert).items() if f != "K"}
    for condition, omega in (("A", twin.omega1), ("B", twin.omega2)):
        if omega is None:
            with pytest.raises(ConditionInapplicableError):
                choose_M(spec, condition, K, cert)
        else:
            sched = choose_M(spec, condition, K, cert)
            assert (sched.M, sched.i) == oracle_schedule(spec, condition,
                                                         omega, K)


def test_cover_sums():
    star = first_reconstruct(preset("cantor3"), 20)
    sums = cover_sum(star, 0.7, 20)
    # closed form (2 / 3^0.7)^k: geometric decay toward 0
    assert abs(sums[-1] - (2 / 3 ** 0.7) ** 20) < 1e-12
    assert all(b < a for a, b in zip(sums, sums[1:]))
    crit = cover_sum(star, LOG2_3, 20)
    assert all(abs(v - 1) < 1e-9 for v in crit)
    total = cover_sum(star, 1.0, 20)
    assert all(v <= 1 + 1e-12 for v in total)
    with pytest.raises(DomainError):
        cover_sum(star, 0.0, 5)


def test_box_count_cantor3_exact_and_slope():
    spec = preset("cantor3")
    eps = [Fraction(1, 3 ** j) for j in range(3, 10)]
    res = box_count(iter_level(spec, 12), eps)
    assert res.counts == [2 ** j for j in range(3, 10)]
    assert abs(res.slope - LOG2_3) < 1e-9


def test_box_count_full_interval():
    res = box_count([Node((), 0, 1, 1)],
                    [Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)])
    assert res.counts == [10, 100, 1000]
    assert abs(res.slope - 1.0) < 1e-9


def test_box_count_dim1_binary_slope():
    spec = preset("dim1_binary")
    eps = [Fraction(1, 2 ** j) for j in range(4, 12)]
    res = box_count(iter_level(spec, 14), eps)
    # range frozen from the naive oracle at this depth
    assert 0.93 <= res.slope <= 1.0


def test_box_count_errors():
    with pytest.raises(DomainError):
        box_count([], [Fraction(1, 10)])
    with pytest.raises(DomainError):
        box_count([Node((), 0, 1, 1)], [])
    with pytest.raises(DomainError):
        box_count([Node((), 0, 1, 1)], [Fraction(1, 10)])
    # a zero-length interval on a grid line meets no cell at either width
    with pytest.raises(DomainError, match="cell width 1/2 counts no cell"):
        box_count([Node((), 0, 0, 1)], [Fraction(1, 2), Fraction(1, 4)])
    # the width that counts nothing is named, not only the first one given
    with pytest.raises(DomainError, match="cell width 1/4 counts no cell"):
        box_count([Node((), 1, 1, 2)], [Fraction(1, 3), Fraction(1, 4)])


def test_box_count_matches_oracle_random_instances():
    rng = random.Random(20240824)
    names = ["cantor3", "wide10", "dim1_binary", "padded2", "skew10"]
    for _ in range(50):
        name = rng.choice(names)
        spec = preset(name)
        depth = rng.randint(1, 5 if spec.n(1) == 10 else 9)
        base = rng.choice([2, 3, 5, 10])
        j = rng.randint(1, 6)
        eps = Fraction(1, base ** j)
        nodes = list(iter_level(spec, depth))
        intervals = [(n.lo, n.hi) for n in nodes]
        got = box_count(nodes, [eps, eps / 2])
        want = naive_box_count(intervals, eps).value
        assert got.counts[0] == want


def test_box_count_stops_only_below_multiples():
    # 1/16 is a multiple of 1/32 but 2/7 is not: the second interval meets
    # no new 1/32 cell and no new 1/16 cell, yet a new 2/7 cell
    nums = [(0, 1129), (1133, 1246), (2400, 2800)]
    pairs = [(Fraction(lo, 4000), Fraction(hi, 4000)) for lo, hi in nums]
    nodes = [Node((), lo, hi, 4000) for lo, hi in nums]
    eps = [Fraction(1, 32), Fraction(1, 16), Fraction(2, 7)]
    assert [naive_box_count(pairs, e).value for e in eps] == [14, 8, 3]
    assert box_count(nodes, eps).counts == [14, 8, 3]
    assert box_count(nodes, eps[::-1]).counts == [3, 8, 14]


@st.composite
def cell_widths(draw):
    """Distinct widths in shuffled order: the chain 1/b .. 1/b^5, each a
    multiple of the next finer one, and widths that are multiples of none
    of them, such as 2/7."""
    b = draw(st.integers(2, 3))
    chain = [Fraction(1, b ** j) for j in range(1, 6)]
    odd = draw(st.lists(st.sampled_from(
        [Fraction(2, 7), Fraction(1, 6), Fraction(3, 10), Fraction(5, 11)]),
        min_size=1, max_size=2, unique=True))
    return draw(st.permutations(chain + odd))


@given(level_specs(), st.integers(0, 3), cell_widths())
@settings(max_examples=100, deadline=None)
def test_box_count_matches_oracle_on_drawn_levels(spec, k, eps):
    # plain and trimmed levels with negative origins, touching neighbours
    # and seeded gaps, against widths that do and do not divide each other
    if not spec.gaps.node_independent:
        k = min(k, 2)
    for nodes in (build_level(spec, k).nodes, StarState(spec, k).level(k).nodes):
        pairs = [(nd.lo, nd.hi) for nd in nodes]
        assert box_count(nodes, eps).counts == [
            naive_box_count(pairs, e).value for e in eps]


@pytest.mark.parametrize("num,den,wnum,wden,t", [
    (1, 2 ** 1100, 1, 3 ** 700, 0.5),
    (3, 7 ** 400, 2, 5 ** 500, 0.6),
], ids=["mass-underflow", "both-small"])
def test_power_ratio_fallback_reads_values(num, den, wnum, wden, t):
    # past float's normal range the ratio comes from logs, of the reduced
    # rationals whatever pair they are handed as
    want = power_ratio(num, den, wnum, wden, t)
    for g, h in ((3, 1), (1, 5 ** 9), (11 ** 20, 7 ** 30)):
        assert power_ratio(num * g, den * g, wnum * h, wden * h, t) == want


def test_image_ratio_fallback_reads_values():
    # cantor3 under affine:2,0+power:700: level-3 masses and lengths lie
    # below float's normal range; the ratio is the same float from the
    # image's unreduced integers, from reduced ones and from pairs scaled
    # by the length's denominator
    from moranset.branchtree import build_T, choose_M
    from moranset.qsmap import (build_mu_d, image_tree, parse_map,
                                prop1_ratio_series)
    spec = preset("cantor3")
    sched = choose_M(spec, "A", 4)
    tree = build_T(spec, sched, sched.m_max, mode="explicit")
    image = image_tree(parse_map("affine:2,0+power:700"), tree, 128)
    mu = build_mu_d(image, Fraction(1, 2))
    level = 3
    got = []
    for br, (num, den) in zip(image.levels[level], mu.pairs[level]):
        mass, length = Fraction(num, den), br.length
        ratio = power_ratio(num, den, br.hi_num - br.lo_num, br.den, 0.5)
        assert ratio < 1e-100
        assert ratio == power_ratio(mass.numerator, mass.denominator,
                                    length.numerator, length.denominator, 0.5)
        assert ratio == power_ratio(num * br.den, den * br.den,
                                    (br.hi_num - br.lo_num) * br.den,
                                    br.den ** 2, 0.5)
        got.append(ratio)
    assert prop1_ratio_series(mu).ratios[level - 1] == max(got)
