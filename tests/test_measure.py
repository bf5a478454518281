"""Window masses and Frostman-type audits."""

import math
import sys
import time
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranset import measure
from moranset.errors import DomainError, RegimeError
from moranset.measure import (MassMeasure, bound_constant, frostman_audit,
                              mu_window, threshold_level)
from moranset.dimension import check_conditions, power_ratio
from moranset.oracle import (cantor3_frostman_single_interval,
                             exhaustive_mu_sweep, oracle_level, oracle_mu)
from moranset.reconstruct import first_reconstruct
from moranset.specs import preset, preset_names
from test_tree import level_specs


def _measure(name, depth=10):
    return MassMeasure(first_reconstruct(preset(name), depth))


def test_mu_window_examples():
    mm = _measure("cantor3")
    assert mu_window(mm, (Fraction(0), Fraction(1, 3)), 5) == Fraction(1, 2)
    assert mu_window(mm, (Fraction(0), Fraction(1)), 4) == 1
    assert mu_window(mm, (Fraction(2, 9), Fraction(7, 9)), 2) == Fraction(1, 2)
    with pytest.raises(DomainError):
        mu_window(mm, (Fraction(1), Fraction(0)), 2)


def test_mu_window_gap_midpoint_zero():
    mm = _measure("cantor3")
    mid = Fraction(1, 2)
    assert mu_window(mm, (mid, mid), 6) == 0


def test_additivity_over_a_gap():
    mm = _measure("cantor3")
    left = mu_window(mm, (Fraction(0), Fraction(1, 3)), 4)
    right = mu_window(mm, (Fraction(2, 3), Fraction(1)), 4)
    both = mu_window(mm, (Fraction(0), Fraction(1)), 4)
    assert left + right == both == 1


#: Deepest level the oracle rebuilds per preset in the property test below.
_ORACLE_DEPTH = {"cantor3": 6, "dim1_binary": 6, "padded2": 6,
                 "wide10": 3, "skew10": 3}


@lru_cache(maxsize=None)
def _oracle_stars(name, k):
    return oracle_level(preset(name), k, trimmed=True)


@st.composite
def _window_end(draw, stars, hull):
    """A trimmed endpoint, a gap midpoint or a random rational in `hull`."""
    gaps = [(hi + lo) / 2 for (_, hi), (lo, _) in zip(stars, stars[1:])]
    kind = draw(st.sampled_from(["endpoint", "midpoint", "random"]))
    if kind == "endpoint":
        return draw(st.sampled_from([p for iv in stars for p in iv]))
    if kind == "midpoint" and gaps:
        return draw(st.sampled_from(gaps))
    return draw(st.fractions(*hull, max_denominator=10**9))


#: The `test_mu_window_matches_oracle` case drawing its construction from
#: `test_tree.level_specs`: an initial interval off [0, 1], boundary gaps,
#: zero gap weights and seeded gaps.
DRAWN = "level_specs"


@pytest.mark.parametrize("name", preset_names() + [DRAWN])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_mu_window_matches_oracle(name, data):
    if name == DRAWN:
        spec = data.draw(level_specs(), label="spec")
        k = depth = data.draw(st.integers(0, 3), label="k")
        stars = oracle_level(spec, k, trimmed=True)
        lo, hi = spec.interval
        hull = (lo - (hi - lo) / 4, hi + (hi - lo) / 4)
    else:
        spec, depth = preset(name), _ORACLE_DEPTH[name]
        k = data.draw(st.integers(0, depth), label="k")
        stars = _oracle_stars(name, k)
        hull = (Fraction(-1, 4), Fraction(5, 4))
    a = data.draw(_window_end(stars, hull), label="a")
    b = a if data.draw(st.booleans(), label="a == b") else \
        data.draw(_window_end(stars, hull), label="b")
    a, b = min(a, b), max(a, b)
    mm = MassMeasure(first_reconstruct(spec, depth))
    assert mu_window(mm, (a, b), k) == oracle_mu(stars, a, b)


@given(st.data())
@settings(max_examples=40)
def test_depth_consistency(data):
    # windows whose endpoints sit in the removed gaps between level-4
    # intervals measure the same at depth 4 and depth 5
    from moranset.tree import build_level
    mm = _measure("cantor3", depth=8)
    nodes = build_level(preset("cantor3"), 4).nodes
    mids = [(a.hi + b.lo) / 2 for a, b in zip(nodes, nodes[1:])]
    i = data.draw(st.integers(0, len(mids) - 2))
    j = data.draw(st.integers(i + 1, len(mids) - 1))
    u, v = mids[i], mids[j]
    assert mu_window(mm, (u, v), 4) == mu_window(mm, (u, v), 5)


def test_single_interval_ratio_closed_form():
    mm = _measure("cantor3")
    t = 0.6
    # at k = 30 the level has 2^30 intervals: the mass comes from two rank
    # descents, never from the level itself
    for k in (2, 4, 6, 30):
        lo = Fraction(0)
        hi = Fraction(1, 3 ** k)
        mu = mu_window(mm, (lo, hi), k)
        ratio = float(mu) / float(hi - lo) ** t
        assert abs(ratio - cantor3_frostman_single_interval(k, t)) < 1e-12


def test_threshold_level():
    star = first_reconstruct(preset("cantor3"), 8)
    assert threshold_level(star, 0.6, 8) == 1
    with pytest.raises(RegimeError):
        # t above the dimension: the count-length product never exceeds 1
        threshold_level(star, 0.99, 8)


def test_bound_constants():
    cert = check_conditions(preset("cantor3"), 6)
    assert bound_constant(cert, "A") == 32
    assert bound_constant(cert, "B") == 32 * 5
    assert bound_constant(cert, "C") == 8 * Fraction(3, 2)
    with pytest.raises(DomainError):
        bound_constant(cert, "X")


@pytest.mark.parametrize("condition", ["A", "B", "C"])
def test_frostman_exhaustive_cantor3(condition):
    mm = _measure("cantor3")
    audit = frostman_audit(mm, condition, 0.6, (1, 4))
    assert audit.passed
    assert audit.k0 == 1
    assert audit.worst_ratio < 2  # far inside every constant


def test_frostman_matches_oracle_exactly():
    # per preset, t is below the trailing dimension-series minimum and the
    # top level keeps the endpoint pairs within the window budget
    cases = {"cantor3": (0.6, 4), "dim1_binary": (0.6, 4), "padded2": (0.4, 3),
             "wide10": (0.6, 1), "skew10": (0.6, 1)}
    for name, (t, k_top) in cases.items():
        mm = _measure(name, depth=k_top + 2)
        for k in range(1, k_top + 1):
            audit = frostman_audit(mm, "A", t, (k, k))
            sweep = exhaustive_mu_sweep(preset(name), k, t)
            worst, witness = sweep.value
            assert audit.worst_ratio == worst, (name, k)
            assert (audit.witness[0], audit.witness[1]) == witness, (name, k)
            assert audit.windows == sweep.size, (name, k)


def test_frostman_nonzero_boundary_preset():
    mm = _measure("padded2", depth=8)
    audit = frostman_audit(mm, "A", 0.4, (1, 3))
    assert audit.passed


def test_frostman_regime_error():
    mm = _measure("cantor3")
    with pytest.raises(RegimeError):
        frostman_audit(mm, "A", 0.95, (1, 3))


@pytest.mark.parametrize("t", [-1.0, 0.0, float("nan")])
def test_frostman_rejects_nonpositive_exponent(t):
    with pytest.raises(DomainError, match="exponent"):
        frostman_audit(_measure("cantor3"), "A", t, (1, 3))


def test_ratio_past_float_underflow():
    # float(3^-700) is 0.0: the ratio comes from exact logs instead
    expected = math.exp(700 * (0.6 * math.log(3) - math.log(2)))
    assert math.isclose(power_ratio(1, 2 ** 700, 1, 3 ** 700, 0.6), expected,
                        rel_tol=1e-9)
    # normal floats keep the float quotient
    assert power_ratio(1, 4, 1, 9, 0.5) == 0.25 / (1 / 9) ** 0.5


def test_frostman_rejects_zero_threads():
    with pytest.raises(DomainError, match="thread count 0"):
        frostman_audit(_measure("cantor3"), "A", 0.6, (1, 3), threads=0)


def test_frostman_rejects_unknown_mode_before_any_level(monkeypatch):
    def no_series(*args, **kwargs):
        raise AssertionError("the dimension series ran before the mode check")
    monkeypatch.setattr(measure, "dim_formula_seq", no_series)
    with pytest.raises(DomainError, match="unknown audit mode 'grid'"):
        frostman_audit(_measure("cantor3"), "A", 0.6, (1, 3), mode="grid")


def test_sampled_mode_deterministic_and_thread_independent():
    mm = _measure("cantor3")
    kwargs = dict(mode="sampled", samples=300, seed=7)
    a = frostman_audit(mm, "A", 0.6, (2, 4), **kwargs)
    b = frostman_audit(mm, "A", 0.6, (2, 4), **kwargs)
    c = frostman_audit(mm, "A", 0.6, (2, 4), threads=4, **kwargs)
    assert a.worst_ratio == b.worst_ratio == c.worst_ratio
    assert a.witness == b.witness == c.witness
    assert a.passed


def test_trim_cache_filled_from_audit_threads():
    # a state trimmed through level 0 leaves the levels the sampled windows
    # are ranked at to the audit's threads, switching every microsecond
    kwargs = dict(mode="sampled", samples=200, seed=3)
    want = frostman_audit(_measure("cantor3", 0), "A", 0.6, (2, 5), **kwargs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.perf_counter()
        got = frostman_audit(_measure("cantor3", 0), "A", 0.6, (2, 5),
                             threads=8, **kwargs)
        assert time.perf_counter() - start < 30
    finally:
        sys.setswitchinterval(interval)
    assert (got.worst_ratio, got.witness, got.windows) == (
        want.worst_ratio, want.witness, want.windows)


def test_audit_report_shape():
    mm = _measure("cantor3")
    d = frostman_audit(mm, "A", 0.6, (1, 2)).to_dict()
    assert set(d) >= {"t", "k0", "constant", "worst_ratio", "witness"}
    assert set(d["witness"]) == {"a", "b", "k"}
