"""Dimension series, condition certificates, cover sums, box counting."""

import math
import random
from fractions import Fraction

import pytest

from moranset.dimension import (box_count, check_conditions, cover_sum,
                                dim_formula_seq, log_fraction, power_ratio)
from moranset.errors import ConditionInapplicableError, DomainError
from moranset.oracle import dim1_binary_s, naive_box_count
from moranset.reconstruct import first_reconstruct
from moranset.specs import GapPolicy, MoranSpec, constant, preset
from moranset.tree import Node, iter_level

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
