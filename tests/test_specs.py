"""Parameter containers, gap policies, validation, presets, config loading."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranset.errors import (ConfigError, InconsistentSpecError,
                             InvalidSpecError, RuleEvalError)
from moranset.specs import (WEIGHT_SPAN, GapPolicy, MoranSpec, SequenceRule,
                            constant, format_rational, parse_rational, preset,
                            preset_names, spec_from_config, validate_spec)
from moranset.tree import level_stats


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational(5) == Fraction(5)
    assert parse_rational(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(ConfigError):
        parse_rational("1/0")
    with pytest.raises(ConfigError):
        parse_rational("abc")


def test_format_roundtrip():
    x = Fraction(-7, 12)
    assert parse_rational(format_rational(x)) == x


def test_sequence_rule_kinds():
    assert constant(3)(1) == 3 and constant(3)(99) == 3
    per = SequenceRule("periodic", (1, 2, 3))
    assert [per(k) for k in range(1, 7)] == [1, 2, 3, 1, 2, 3]
    pre = SequenceRule("explicit-prefix", (10, 20))
    assert pre(2) == 20
    with pytest.raises(RuleEvalError):
        pre(3)
    tab = SequenceRule("table-function", func=lambda k: k * k)
    assert tab(4) == 16
    with pytest.raises(RuleEvalError):
        tab(0)
    with pytest.raises(ConfigError):
        SequenceRule("nope", (1,))
    with pytest.raises(ConfigError):
        SequenceRule("constant")


def test_gap_policy_validation():
    with pytest.raises(ConfigError):
        GapPolicy("weighted")
    with pytest.raises(ConfigError):
        GapPolicy("weighted", weights=(Fraction(-1), Fraction(2)))
    with pytest.raises(ConfigError):
        GapPolicy("seeded-random")
    assert GapPolicy("uniform").node_independent
    assert GapPolicy("weighted", weights=(Fraction(1),)).node_independent
    assert not GapPolicy("seeded-random", seed=7).node_independent


def test_uniform_and_weighted_gaps_sum_exactly():
    u = GapPolicy("uniform")
    gaps = u.interior_gaps((), 1, 9, Fraction(1, 2))
    assert gaps == (Fraction(1, 18),) * 9
    w = GapPolicy("weighted", weights=(Fraction(1), Fraction(3)))
    gaps = w.interior_gaps((), 1, 3, Fraction(1, 2))
    assert sum(gaps) == Fraction(1, 2)
    assert gaps[1] == 3 * gaps[0]


@given(seed=st.integers(0, 2**32), k=st.integers(1, 6),
       sigma=st.lists(st.integers(1, 9), max_size=4).map(tuple),
       count=st.integers(1, 12))
@settings(max_examples=60)
def test_seeded_gaps_reproducible_and_exact(seed, k, sigma, count):
    p = GapPolicy("seeded-random", seed=seed)
    slack = Fraction(3, 7)
    a = p.interior_gaps(sigma, k, count, slack)
    b = p.interior_gaps(sigma, k, count, slack)
    assert a == b
    assert sum(a) == slack
    assert all(g > 0 for g in a)


@pytest.mark.parametrize("seed", [0, 7, 42, -3, 2**40])
def test_seeded_gap_weights_are_the_randint_stream(seed):
    # the draw stream is part of every seeded digest: the weights must stay
    # randint(1, WEIGHT_SPAN) from one Random per parent, seeded by its text
    policy = GapPolicy("seeded-random", seed=seed)
    for k in (1, 2, 5):
        for sigma in [(), (1,), (3, 7), (10, 1, 4), (2,) * 9]:
            for count in range(1, 13):
                rng = random.Random(f"{seed}|{k}|{','.join(map(str, sigma))}")
                want = tuple(rng.randint(1, WEIGHT_SPAN) for _ in range(count))
                assert policy.gap_weights(sigma, k, count) == want


def test_preset_catalog():
    assert set(preset_names()) >= {"cantor3", "dim1_binary", "wide10", "skew10"}
    c = preset("cantor3")
    assert c.n(5) == 2 and c.c(5) == Fraction(1, 3)
    d = preset("dim1_binary")
    assert d.c(3) == Fraction(63, 128)
    with pytest.raises(ConfigError):
        preset("nope")


def test_slack_examples():
    assert preset("cantor3").slack(1) == Fraction(1, 3)
    assert preset("wide10").slack(2) == Fraction(1, 40)
    # touching children: zero slack is legal
    s = MoranSpec(constant(2), constant(Fraction(1, 4)),
                  constant(Fraction(1, 4)), constant(Fraction(1, 4)),
                  GapPolicy("uniform"))
    assert s.slack(1) == 0


def test_negative_slack_rejected():
    s = MoranSpec(constant(2), constant(Fraction(2, 5)),
                  constant(Fraction(1, 5)), constant(Fraction(1, 5)),
                  GapPolicy("uniform"))
    with pytest.raises(InconsistentSpecError):
        s.slack(1)


def test_validate_pass_and_fail():
    rep = validate_spec(preset("cantor3"), 10)
    assert rep.ok
    assert all(lc.slack == Fraction(1, 3 ** lc.k) for lc in rep.levels)
    bad = MoranSpec(constant(2), constant(Fraction(1, 2)),
                    constant(Fraction(0)), constant(Fraction(0)),
                    GapPolicy("uniform"))
    rep = validate_spec(bad, 3)
    assert not rep.ok
    assert not rep.levels[0].ok


def test_weights_zero_over_the_used_gaps():
    # the weight cycle has a positive sum, but a parent with two children
    # uses only the first weight
    policy = GapPolicy("weighted", weights=(Fraction(0), Fraction(1)))
    with pytest.raises(InvalidSpecError, match="level 1 sum to zero"):
        policy.interior_gaps((), 1, 1, Fraction(1, 3))
    spec = MoranSpec(constant(2), constant(Fraction(1, 3)),
                     constant(Fraction(0)), constant(Fraction(0)), policy)
    rep = validate_spec(spec, 2)
    assert not rep.ok
    assert "sum to zero" in rep.levels[0].problems[0]
    with pytest.raises(InvalidSpecError, match="level 1 sum to zero"):
        level_stats(spec, 1)


def test_validate_reports_rule_failure_level():
    s = MoranSpec(SequenceRule("explicit-prefix", (2, 2)),
                  constant(Fraction(1, 3)), constant(Fraction(0)),
                  constant(Fraction(0)), GapPolicy("uniform"))
    rep = validate_spec(s, 5)
    assert not rep.ok
    assert "k=3" in rep.error


def test_spec_from_config():
    cfg = {
        "n": {"kind": "constant", "values": [2]},
        "c": {"kind": "constant", "values": ["1/3"]},
        "L": {"kind": "constant", "values": ["0"]},
        "R": {"kind": "constant", "values": ["0"]},
        "gaps": {"kind": "uniform"},
        "interval": {"lo": "0", "hi": "1"},
    }
    s = spec_from_config(cfg)
    assert s.n(1) == 2 and s.delta(2) == Fraction(1, 9)
    with pytest.raises(ConfigError):
        spec_from_config({k: v for k, v in cfg.items() if k != "gaps"})
    cfg_bad = dict(cfg, c={"kind": "table-function"})
    with pytest.raises(ConfigError):
        spec_from_config(cfg_bad)
