"""Window masses and Frostman-type audits."""

import math
import random
import sys
import time
import tracemalloc
import types
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from moranset import measure
from moranset.errors import DomainError, RegimeError
from moranset.measure import (MassMeasure, bound_constant, frostman_audit,
                              mu_window, threshold_level)
from moranset.dimension import check_conditions, dim_formula_seq, power_ratio
from moranset.oracle import (cantor3_frostman_single_interval,
                             exhaustive_mu_sweep, oracle_level, oracle_mu)
from moranset.reconstruct import first_reconstruct
from moranset.specs import MoranSpec, preset, preset_names
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


def _fraction_windows(spec, k, samples, seed, stream=random.Random):
    """The sampled level-k windows (a, b) as their `Fraction` draws define
    them: the stream `random.Random(f"{seed}|{k}")` gives u then v per
    window, of width w = d*_{k+1} + (d*_k - d*_{k+1}) u and left end
    hull_lo + (hull length - w) v, the trimmed lengths read off the
    oracle's levels."""
    span = 2**30
    hull_lo, hull_hi = spec.interval
    lo, hi = oracle_level(spec, k + 1, trimmed=True)[0]
    lo_w = hi - lo
    lo, hi = oracle_level(spec, k, trimmed=True)[0]
    hi_w = hi - lo
    rng = stream(f"{seed}|{k}")
    for _ in range(samples):
        width = lo_w + (hi_w - lo_w) * Fraction(rng.randrange(span), span)
        a = hull_lo + (hull_hi - hull_lo - width) * Fraction(
            rng.randrange(span), span)
        yield a, a + width


def _fraction_stream(spec, t, levels, samples, seed, stream=random.Random):
    """The sampled audit as its `Fraction` draws define it, each window of
    `_fraction_windows` measured by the oracle's linear scan over its own
    trimmed level k+1.  Returns (worst ratio, witness, windows)."""
    best, witness, count = -1.0, None, 0
    for k in levels:
        stars = oracle_level(spec, k + 1, trimmed=True)
        for a, b in _fraction_windows(spec, k, samples, seed, stream):
            mu = oracle_mu(stars, a, b)
            width = b - a
            ratio = power_ratio(mu.numerator, mu.denominator,
                                width.numerator, width.denominator, t)
            count += 1
            if ratio > best:
                best, witness = ratio, (a, b, k)
    return max(best, 0.0), witness, count


#: Per preset, a Frostman exponent below the series and the top audited
#: level, whose level k+1 the oracle rebuilds for every window.
_STREAM_CASES = {"cantor3": (0.6, 4), "dim1_binary": (0.6, 4),
                 "padded2": (0.4, 4), "wide10": (0.6, 2), "skew10": (0.6, 2)}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(_STREAM_CASES))
def test_sampled_audit_is_the_fraction_stream(name, threads):
    spec = preset(name)
    t, k_hi = _STREAM_CASES[name]
    audit = frostman_audit(MassMeasure(first_reconstruct(spec, k_hi + 2)),
                           "A", t, (1, k_hi), mode="sampled", samples=60,
                           seed=11, threads=threads)
    levels = range(audit.k0, k_hi + 1)
    assert (audit.worst_ratio, audit.witness, audit.windows) == \
        _fraction_stream(spec, t, levels, 60, 11)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("chunks", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)])
def test_sampled_audit_is_the_fraction_stream_across_chunks(chunks, threads):
    # the windows are ranked `_CHUNK` at a time: counts just below, at and
    # past a chunk's end keep the stream's order and lose no window
    spec = preset("cantor3")
    samples = chunks[0] * measure._CHUNK + chunks[1]
    audit = frostman_audit(MassMeasure(first_reconstruct(spec, 4)), "A", 0.6,
                           (1, 2), mode="sampled", samples=samples, seed=5,
                           threads=threads)
    levels = range(audit.k0, 3)
    assert (audit.worst_ratio, audit.witness, audit.windows) == \
        _fraction_stream(spec, 0.6, levels, samples, 5)


@pytest.mark.parametrize("threads", [1, 2])
@given(spec=level_specs(), k_hi=st.integers(1, 2), seed=st.integers(0, 99))
@settings(max_examples=40, deadline=None)
def test_sampled_audit_is_the_fraction_stream_drawn(spec, k_hi, seed, threads):
    # seeded gaps, boundary gaps and an origin off 0; condition B applies
    # to every construction.  t is half the smaller of the series minimum
    # and the exponent log N / -log delta* at which level k_hi's count times
    # its absolute trimmed length^t is 1, so t is in the regime and level
    # k_hi is past the threshold on an initial interval shorter than 1 too
    # (a trimmed length of at least 1 passes at every t)
    tail_min = dim_formula_seq(spec, k_hi + 1).tail_min
    assume(tail_min > 0)
    star = first_reconstruct(spec, k_hi + 2)
    length = star.delta_star(k_hi)
    reach = math.log(spec.count(k_hi)) / -math.log(length) if length < 1 else math.inf
    t = min(tail_min, reach) / 2
    audit = frostman_audit(MassMeasure(star),
                           "B", t, (1, k_hi), mode="sampled", samples=20,
                           seed=seed, threads=threads)
    levels = range(audit.k0, k_hi + 1)
    assert (audit.worst_ratio, audit.witness, audit.windows) == \
        _fraction_stream(spec, t, levels, 20, seed)


class _Touching:
    """A `random.Random` stand-in whose first draws (u, v) = (0, 1/8) put
    cantor3's level-1 window on [1/9, 2/9], a right end and a left end of
    level 2, and (0, 0) on [0, 1/9]; the seeded stream follows."""
    script = [0, 2**27, 0, 0]

    def __init__(self, seed):
        self.draws = iter(self.script)
        self.rest = random.Random(seed)

    def randrange(self, n):
        value = next(self.draws, None)
        return self.rest.randrange(n) if value is None else value


def test_sampled_audit_counts_windows_touching_endpoints(monkeypatch):
    # a closed window holds the intervals it touches: ranks at a window's
    # ends count an endpoint on them, which random draws almost never hit
    spec = preset("cantor3")
    monkeypatch.setattr(measure, "random", types.SimpleNamespace(Random=_Touching))
    audit = frostman_audit(MassMeasure(first_reconstruct(spec, 3)), "A", 0.6,
                           (1, 1), mode="sampled", samples=5, seed=2)
    assert (audit.worst_ratio, audit.witness, audit.windows) == \
        _fraction_stream(spec, 0.6, [1], 5, 2, _Touching)
    assert audit.witness == (Fraction(1, 9), Fraction(2, 9), 1)


def _visited(spec, levels, y, find):
    """The (parent, level j) pairs a rank descent of y passes below the
    levels 0..K-1 (`levels`, their left endpoints): the root at j = 1, then
    at each j the level-(j-1) interval the query is in, as its index, so
    long as it is a child of the one above.  `find` as in `tree.rank`."""
    seen, parent = {(0, 1)}, 0
    for j in range(1, len(levels)):
        i = find(levels[j], y) - 1
        if i < 0 or i // spec.n(j) != parent:
            break
        parent = i
        seen.add((i, j + 1))
    return seen


def test_sampled_audit_draws_each_seeded_parent_once_per_call(monkeypatch):
    # a chunk's right ends share one rank call and its left ends another,
    # and a call draws the child offsets of each seeded parent it passes
    # once: no more draws than the distinct (parent, level) pairs that each
    # call's queries pass, found here on the oracle's levels
    spec = preset("skew10")
    star = first_reconstruct(spec, 5)
    cert = check_conditions(spec, 4)
    draws = []
    offsets = MoranSpec.child_offsets

    def counted(self, sigma, j):
        draws.append((sigma, j))
        return offsets(self, sigma, j)
    monkeypatch.setattr(MoranSpec, "child_offsets", counted)
    audit = frostman_audit(MassMeasure(star), "A", 0.3, (1, 3), mode="sampled",
                           samples=200, seed=0, cert=cert)
    monkeypatch.undo()
    bound = 0
    for k in range(audit.k0, 4):
        shift, reach = star.trim(k + 1)[0], star.delta_star(k + 1)
        levels = [[lo for lo, _ in oracle_level(spec, j)] for j in range(k + 1)]
        windows = list(_fraction_windows(spec, k, 200, 0))
        for at in range(0, len(windows), measure._CHUNK):
            chunk = windows[at:at + measure._CHUNK]
            for find, ys in ((bisect_right, [b for _, b in chunk]),
                             (bisect_left, [a - reach for a, _ in chunk])):
                bound += len(set().union(*(_visited(spec, levels, y - shift, find)
                                           for y in ys)))
    assert audit.windows == 200 * (4 - audit.k0)
    assert 0 < len(draws) <= bound


def test_sampled_audit_memory_is_bounded_by_the_chunk():
    # the windows are drawn and ranked a chunk at a time, so sixteen
    # chunks of samples peak below twice what one chunk does
    spec = preset("cantor3")
    cert = check_conditions(spec, 3)

    def peak(samples):
        star = first_reconstruct(spec, 3)
        tracemalloc.start()
        frostman_audit(MassMeasure(star), "A", 0.6, (1, 2), mode="sampled",
                       samples=samples, seed=0, cert=cert)
        top = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return top
    peak(measure._CHUNK)                # imports and caches, once
    assert peak(16 * measure._CHUNK) < 2 * peak(measure._CHUNK)


def test_sampled_audit_builds_no_fraction_per_window(monkeypatch):
    # with the certificate passed in, the audit builds a fixed number of
    # Fractions per level, whatever the sample count: 5,600 windows here
    spec = preset("cantor3")
    mm = MassMeasure(first_reconstruct(spec, 9))
    cert = check_conditions(spec, 8)
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", counting)
    audit = frostman_audit(mm, "A", 0.6, (1, 7), mode="sampled", samples=800,
                           seed=0, cert=cert)
    monkeypatch.undo()
    assert audit.windows == 5600
    assert len(built) < 200
