"""Map families, image hierarchies, length-power measures, statistics."""

import dataclasses
import math
import re
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_int, mpf_div, mpf_pow, round_nearest

from moranset.branchtree import BranchTree, Schedule, build_T, choose_M
from moranset.errors import ConfigError, DomainError, PrecisionError
from moranset.oracle import dim1_binary_prop1_log_ratios, oracle_mu_d
from moranset.qsmap import (_GUARD_BITS, AffineMap, CompositionMap,
                            IdentityMap, ImageBranch, ImageTree,
                            PiecewiseLinearMap, PowerMap, QsMap, QsStats,
                            _floor_root, _power_weights, _sqrt_nearest,
                            build_mu_d, image_tree, parse_map,
                            prop1_ratio_series, sandwich_audit, stats_series)
from moranset.reconstruct import StarState
from moranset.specs import GapPolicy, MoranSpec, constant, preset
from test_tree import level_specs


def mu_masses(mu) -> list[list[Fraction]]:
    """Each level's `mu_d` masses as `Fraction`s, from the unreduced
    integer pairs that `build_mu_d` keeps."""
    return [[Fraction(num, den) for num, den in level] for level in mu.pairs]


def _tree(name, depth, mode="explicit"):
    spec = preset(name)
    sched = choose_M(spec, "A", depth)
    return build_T(spec, sched, sched.m[depth], mode=mode)


# -- map families -----------------------------------------------------------

def _enclose(fmap, x: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """The enclosure `fmap.bounds` gives f(x), as two `Fraction`s."""
    lo, hi, den = fmap.bounds(x.numerator, x.denominator, prec)
    return Fraction(lo, den), Fraction(hi, den)


def test_power_bounds_exact_powers():
    # exact q-th powers give lo == hi; an irrational power gives lo < hi
    assert _enclose(PowerMap(Fraction(1, 2)), Fraction(4), 64) == (2, 2)
    assert _enclose(PowerMap(Fraction(2, 3)), Fraction(8, 27), 64) \
        == (Fraction(4, 9), Fraction(4, 9))
    lo, hi = _enclose(PowerMap(Fraction(1, 2)), Fraction(2), 64)
    assert lo < hi
    assert _enclose(PowerMap(Fraction(3)), Fraction(0), 64) == (0, 0)


def test_parse_map_families():
    identity = parse_map("identity")
    assert isinstance(identity, IdentityMap)
    assert identity.bounds(3, 7, 64) == (3, 3, 7)
    a = parse_map("affine:2,1")
    assert _enclose(a, Fraction(3), 64) == (7, 7)
    p = parse_map("power:2")
    assert _enclose(p, Fraction(1, 2), 64) == (Fraction(1, 4), Fraction(1, 4))
    assert _enclose(p, Fraction(-1, 2), 64) \
        == (Fraction(-1, 4), Fraction(-1, 4))
    pl = parse_map("pl:0,0;1/2,1/4;1,1")
    assert _enclose(pl, Fraction(1, 4), 64) == (Fraction(1, 8), Fraction(1, 8))
    v = Fraction(1, 4) + Fraction(3, 8)
    assert _enclose(pl, Fraction(3, 4), 64) == (v, v)
    comp = parse_map("power:2+affine:3,-1")
    v = 3 * Fraction(1, 4) - 1
    assert _enclose(comp, Fraction(1, 2), 64) == (v, v)
    with pytest.raises(ConfigError):
        parse_map("spline:1")
    with pytest.raises(ConfigError):
        parse_map("affine:1")


def test_map_validation():
    # a bad map is a bad --map value, so a configuration error
    with pytest.raises(ConfigError, match="slope"):
        AffineMap(Fraction(-1), Fraction(0))
    with pytest.raises(ConfigError, match="exponent"):
        PowerMap(Fraction(0))
    with pytest.raises(ConfigError, match="strictly increasing"):
        PiecewiseLinearMap([(Fraction(0), Fraction(0)),
                            (Fraction(1), Fraction(0))])
    with pytest.raises(ConfigError, match="breakpoints"):
        PiecewiseLinearMap([(Fraction(0), Fraction(0))])
    with pytest.raises(ConfigError, match="empty composition"):
        CompositionMap([])


@given(st.fractions(min_value=0, max_value=4), st.fractions(min_value=0, max_value=4))
@settings(max_examples=40)
def test_power_map_monotone(x, y):
    p = PowerMap(Fraction(3, 2))
    if x < y:
        assert p.float_eval(float(x)) <= p.float_eval(float(y))


# -- image trees ------------------------------------------------------------

def test_identity_image_exact():
    tree = _tree("cantor3", 3)
    img = image_tree(IdentityMap(), tree)
    for m in range(1, 4):
        for src, dst in zip(tree.explicit[m], img.levels[m]):
            assert (dst.lo, dst.hi) == (src.lo, src.hi)
            assert dst.exact


def test_affine_image_exact():
    tree = _tree("cantor3", 2)
    img = image_tree(parse_map("affine:3,-1"), tree)
    assert img.hull() == (Fraction(-1), Fraction(2))


def test_power_image_contains_truth():
    tree = _tree("cantor3", 4)
    lo_p = image_tree(PowerMap(Fraction(1, 3)), tree, precision_bits=32)
    hi_p = image_tree(PowerMap(Fraction(1, 3)), tree, precision_bits=160)
    for coarse, fine in zip(lo_p.levels[4], hi_p.levels[4]):
        assert coarse.lo <= fine.lo and fine.hi <= coarse.hi


def test_image_ordering_preserved():
    tree = _tree("cantor3", 3)
    img = image_tree(PowerMap(Fraction(2)), tree)
    for level in img.levels:
        for a, b in zip(level, level[1:]):
            assert a.hi <= b.lo


def test_image_requires_explicit_tree():
    # a template holds one parent's cell per stage: only an affine map sends
    # the other parents, its translates, to translates of the cell's image
    tree = _tree("cantor3", 3, mode="auto")
    assert tree.mode == "template"
    with pytest.raises(DomainError, match="non-affine map power"):
        image_tree(PowerMap(Fraction(2)), tree)
    img = image_tree(IdentityMap(), tree)
    assert [len(level) for level in img.levels] == [1, 2, 2, 2]


def _pl_value(points, x: Fraction) -> Fraction:
    """The polyline through `points` at x, its end segments extended."""
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x <= x1:
            break
    return y0 + (y1 - y0) / (x1 - x0) * (x - x0)


_steps = st.fractions(min_value=Fraction(1, 100), max_value=5,
                      max_denominator=100)
_pl_points = st.lists(st.tuples(_steps, _steps), min_size=1, max_size=5).map(
    lambda steps: list(accumulate(
        steps, lambda pt, step: (pt[0] + step[0], pt[1] + step[1]),
        initial=(Fraction(-1), Fraction(-2)))))


@given(_pl_points,
       st.one_of(st.fractions(min_value=-20, max_value=30,
                              max_denominator=10 ** 6),
                 st.floats(min_value=-20, max_value=30)))
@settings(max_examples=200, deadline=None)
def test_piecewise_linear_bounds_exact(points, x):
    # breakpoints span [-1, 24] at most: x falls inside them and beyond
    # either end, where the end slopes extrapolate
    pl = PiecewiseLinearMap(points)
    v = _pl_value(points, Fraction(x))
    num, den = x.as_integer_ratio()
    lo, hi, d = pl.bounds(num, den, 64)
    assert lo == hi and Fraction(lo, d) == v
    assert pl.float_eval(x) == float(v)


# -- certified enclosures ---------------------------------------------------

@given(st.integers(min_value=0, max_value=2 ** 700),
       st.integers(min_value=1, max_value=40))
@settings(max_examples=200)
def test_floor_root(n, q):
    r = _floor_root(n, q)
    assert r ** q <= n < (r + 1) ** q


def _mpf_fraction(raw) -> Fraction:
    sign, man, exp, _ = raw
    v = man * Fraction(2) ** exp
    return -v if sign else v


def _rounded_enclosure(x: Fraction, a: Fraction, prec: int):
    """The enclosure the round-to-nearest path used to report: |x|^a at
    prec + 32 bits, signed, widened by max(|v|, 1)·2^-prec on each side."""
    with mpmath.workprec(prec + 32):
        v = mpmath.power(mpmath.mpf(abs(x.numerator)) / x.denominator,
                         mpmath.mpf(a.numerator) / a.denominator)
        v = _mpf_fraction(v._mpf_)
    v = -v if x < 0 else v
    pad = max(abs(v), 1) * Fraction(2) ** -prec
    return v - pad, v + pad


_nonzero = st.fractions(min_value=-8, max_value=8, max_denominator=10 ** 12
                        ).filter(lambda x: x != 0)


@given(_nonzero, st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=5),
       st.sampled_from([8, 53, 128]))
@settings(max_examples=200, deadline=None)
def test_power_enclosure_certified(x, p, q, prec):
    a = Fraction(p, q)
    lo, hi = _enclose(PowerMap(a), x, prec)
    p, q = a.numerator, a.denominator
    exact = _exact_power(abs(x), a)
    if exact is not None:
        assert lo == hi == (exact if x > 0 else -exact)
        return
    # |x|^p lies between the q-th powers of the bounds, compared exactly
    if x > 0:
        assert 0 <= lo and lo ** q <= x ** p <= hi ** q
    else:
        assert hi <= 0 and (-hi) ** q <= abs(x) ** p <= (-lo) ** q
    # at most max(|v|, 1)·2^-prec wide (|v| >= the smaller bound's size)
    assert 0 < hi - lo <= max(min(abs(lo), abs(hi)), 1) * Fraction(2) ** -prec
    old_lo, old_hi = _rounded_enclosure(x, a, prec)
    assert old_lo <= lo and hi <= old_hi


def _iv_signed_power(iv, y, p, q):
    if y.a == 0 == y.b:
        return y
    return iv.sign(y) * abs(y) ** (iv.mpf(p) / q)


def _iv_fraction(y) -> tuple[Fraction, Fraction]:
    lo, hi = y._mpi_
    return _mpf_fraction(lo), _mpf_fraction(hi)


_PL = "pl:0,0;1/2,1/3;1,1"


def _iv(iv, x: Fraction):
    return iv.mpf(x.numerator) / x.denominator


@pytest.mark.parametrize("text,iv_eval", [
    ("power:1/2+affine:3,-1", lambda iv, x: 3 * iv.sqrt(_iv(iv, x)) - 1),
    ("affine:1/2,-1/4+power:1/3",
     lambda iv, x: _iv_signed_power(iv, _iv(iv, x / 2 - Fraction(1, 4)), 1, 3)),
    (_PL + "+power:2/3",
     lambda iv, x: _iv_signed_power(
         iv, _iv(iv, _pl_value(parse_map(_PL).points, x)), 2, 3)),
])
def test_composition_enclosures_contain_interval_arithmetic(text, iv_eval):
    """Every endpoint of the image contains mpmath's interval-arithmetic
    enclosure at four times the precision."""
    from mpmath import iv
    prec = 64
    fmap = parse_map(text)
    tree = _tree("cantor3", 3)
    points = {x for level in tree.explicit for br in level for x in (br.lo, br.hi)}
    saved, iv.prec = iv.prec, 4 * prec
    try:
        inexact = 0
        for x in sorted(points):
            lo, hi = _enclose(fmap, x, prec)
            ref_lo, ref_hi = _iv_fraction(iv_eval(iv, x))
            if lo == hi:
                assert ref_lo <= lo <= ref_hi
            else:
                inexact += 1
                assert lo <= ref_lo <= ref_hi <= hi
    finally:
        iv.prec = saved
    assert inexact > 0


def _bisect_root(n: Fraction, q: int) -> int:
    """The largest integer r >= 0 with r^q <= n, by bisection."""
    lo, hi = 0, 1
    while hi ** q <= n:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid ** q <= n else (lo, mid)
    return lo


def _exact_power(x: Fraction, a: Fraction) -> Fraction | None:
    """x^a for x >= 0 when x's numerator and denominator are q-th powers
    (a = p/q), else None."""
    p, q = a.numerator, a.denominator
    n, d = x.numerator, x.denominator
    rn, rd = _bisect_root(Fraction(n), q), _bisect_root(Fraction(d), q)
    return Fraction(rn, rd) ** p if rn ** q == n and rd ** q == d else None


def _reference_enclosure(fmap, x: Fraction, prec: int):
    """The documented enclosure in `Fraction`s, apart from the kernels: a
    power is exact when |x|'s numerator and denominator are q-th powers,
    else [r, r+1]·2^-s for the largest r with (r·2^-s)^q <= |x|^p; a
    composition pushes lower through lower and upper through upper, with
    guard bits on its inner parts; identity, affine and piecewise-linear
    values are computed here from `a`, `b` and `points`, and exact."""
    if isinstance(fmap, CompositionMap):
        lo = hi = x
        for i, part in enumerate(fmap.parts):
            bits = prec if i == len(fmap.parts) - 1 else prec + _GUARD_BITS
            lo, hi = (_reference_enclosure(part, lo, bits)[0],
                      _reference_enclosure(part, hi, bits)[1])
        return lo, hi
    if isinstance(fmap, IdentityMap):
        return x, x
    if isinstance(fmap, AffineMap):
        v = fmap.a * x + fmap.b
        return v, v
    if isinstance(fmap, PiecewiseLinearMap):
        v = _pl_value(fmap.points, x)
        return v, v
    p, q = fmap.a.numerator, fmap.a.denominator
    n, d = abs(x.numerator), x.denominator
    v = _exact_power(abs(x), fmap.a)
    if v is not None:
        return (v, v) if x >= 0 else (-v, -v)
    s = prec - max(p * (n.bit_length() - d.bit_length() - 1) // q, 0)
    r = _bisect_root(abs(x) ** p * Fraction(2) ** (q * s), q)
    step = Fraction(2) ** -s
    lo, hi = r * step, (r + 1) * step
    return (lo, hi) if x > 0 else (-hi, -lo)


_exact_powers = st.builds(lambda r, q, neg: (-1) ** neg * r ** q,
                          st.fractions(min_value=Fraction(1, 50),
                                       max_value=50, max_denominator=50),
                          st.integers(1, 5), st.booleans())
_large = st.builds(lambda m, e: m * Fraction(2) ** e,
                   st.fractions(min_value=-8, max_value=8,
                                max_denominator=1000).filter(bool),
                   st.integers(140, 400))
_kernel_maps = st.one_of(
    st.builds(lambda p, q: f"power:{p}/{q}", st.integers(1, 5),
              st.integers(1, 5)),
    st.sampled_from(["power:1/2+affine:3,-1", "power:1/3+power:3/2",
                     "affine:1/2,-1/4+power:1/3+power:2",
                     "power:2/3+affine:5/3,1/7+power:1/2",
                     _PL, _PL + "+power:2/3", "affine:7/5,-2/9",
                     "identity", "identity+power:1/2"]))


@given(_kernel_maps,
       st.one_of(_nonzero, _exact_powers, _large, st.just(Fraction(4, 9)),
                 st.just(Fraction(27, 8)), st.just(Fraction(0))),
       st.sampled_from([8, 53, 128]))
@settings(max_examples=300, deadline=None)
def test_integer_kernel_matches_fraction_reference(text, x, prec):
    fmap = parse_map(text)
    lo, hi, den = fmap.bounds(x.numerator, x.denominator, prec)
    assert all(type(v) is int for v in (lo, hi, den)) and den > 0
    assert (Fraction(lo, den), Fraction(hi, den)) \
        == _reference_enclosure(fmap, x, prec)


def test_integer_kernel_cases():
    # exact q-th powers of both signs, the s < 0 branch of a large |x|, and
    # a composition whose inner part is inexact
    assert PowerMap(Fraction(1, 2)).bounds(4, 9, 64) == (2, 2, 3)
    assert PowerMap(Fraction(2, 3)).bounds(-27, 8, 64) == (-9, -9, 4)
    x = Fraction(3 * 2 ** 300, 7)
    cube = PowerMap(Fraction(3, 2))
    lo, hi, den = cube.bounds(x.numerator, x.denominator, 8)
    # s = 8 - 3·(302 - 3 - 1)//2 = -439: integer bounds 2^439 apart
    assert den == 1 and hi - lo == 2 ** 439
    assert (lo, hi) == _reference_enclosure(cube, x, 8)
    lo, hi = _enclose(parse_map("power:1/2+affine:3,-1"), Fraction(1, 2), 64)
    assert lo < hi
    assert ((lo + 1) / 3) ** 2 <= Fraction(1, 2) <= ((hi + 1) / 3) ** 2


def test_image_branches_hold_integers():
    fmap = parse_map("power:1/2")
    source = _tree("skew10", 3)
    img = image_tree(fmap, source)
    inexact = 0
    for src_level, level in zip(source.explicit, img.levels):
        for src, br in zip(src_level, level):
            assert all(type(v) is int for v in (br.lo_num, br.hi_num, br.den))
            assert Fraction(br.lo_num, br.den) == br.lo
            assert Fraction(br.hi_num, br.den) == br.hi
            assert (br.lo, br.hi) == (_enclose(fmap, src.lo, 128)[0],
                                      _enclose(fmap, src.hi, 128)[1])
            inexact += not br.exact
    assert inexact > 0


class _CountingMap(QsMap):
    """`inner` with every `bounds` call recorded."""

    def __init__(self, inner: QsMap):
        self.inner = inner
        self.calls: list[tuple[int, int]] = []

    def bounds(self, num, den, prec):
        self.calls.append((num, den))
        return self.inner.bounds(num, den, prec)


def _touching3() -> MoranSpec:
    # weights 0, 1: the first two children of every parent touch, and the
    # zero boundary gaps put a parent's ends on its first and last child's
    return MoranSpec(constant(3), constant(Fraction(1, 4)), constant(0),
                     constant(0), GapPolicy("weighted", weights=(0, 1)),
                     name="touching3")


@pytest.mark.parametrize("name,depth,calls", [
    ("cantor3", 3, 16), ("wide10", 3, 2000), ("skew10", 4, 20000),
    ("padded2", 3, 30), ("dim1_binary", 3, 16), ("touching3", 3, 41),
    ("touching3", 4, 122)])
def test_image_encloses_each_endpoint_once(name, depth, calls):
    # an explicit tree's endpoints repeat only as a child's end on its
    # parent's or as a zero gap's two sides; `image_tree` reuses those
    # enclosures, so `bounds` sees each reduced endpoint exactly once
    spec = _touching3() if name == "touching3" else preset(name)
    sched = choose_M(spec, "B" if name == "touching3" else "A", depth)
    tree = build_T(spec, sched, mode="explicit")
    fmap = _CountingMap(parse_map("power:1/2"))
    image = image_tree(fmap, tree)
    endpoints = {x for level in tree.levels for br in level for x in (br.lo, br.hi)}
    assert sorted(fmap.calls) == sorted((x.numerator, x.denominator)
                                        for x in endpoints)
    assert len(fmap.calls) == calls
    want = image_tree(fmap.inner, tree)
    assert [[(br.lo_num, br.hi_num, br.den, br.parent, br.exact) for br in level]
            for level in image.levels] == [
        [(br.lo_num, br.hi_num, br.den, br.parent, br.exact) for br in level]
        for level in want.levels]


def test_image_holds_one_level_of_enclosures():
    # 20,000 endpoints on skew10 depth 4: a whole-tree table of their
    # enclosures peaked at 7.8 MB; one level's peaks at about 2.4 MB
    tree = _tree("skew10", 4)
    fmap = parse_map("power:1/2")
    tracemalloc.start()
    try:
        image_tree(fmap, tree)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"{peak / 2**20:.2f} MB"


def test_large_exponent_enclosure_certified():
    tree = _tree("cantor3", 2)
    img = image_tree(parse_map("power:1000/999"), tree)
    for src, dst in zip(tree.explicit[2], img.levels[2]):
        assert dst.lo ** 999 <= src.lo ** 1000 and src.hi ** 1000 <= dst.hi ** 999


# -- length-power measure ---------------------------------------------------

@pytest.mark.parametrize("d", [0.3, 0.5, 0.9])
def test_identity_cantor3_masses_exact(d):
    img = image_tree(IdentityMap(), _tree("cantor3", 5))
    masses = mu_masses(build_mu_d(img, d))
    for k in range(6):
        assert all(m == Fraction(1, 2 ** k) for m in masses[k])
        assert sum(masses[k]) == 1


def test_unequal_siblings_split():
    w = _power_weights([4, 1], Fraction(1, 2), 128)
    assert w == [2, 1]
    w = _power_weights([1, 1], Fraction(1, 2), 128)
    assert w == [1, 1]
    # sqrt(2) and 1 at 160 bits, as the mpmath weights were recorded
    w = _power_weights([2, 1], Fraction(1, 2), 128)
    assert w == [1033437718471923706666374484006904511252097097915, 2 ** 159]
    # mpmath's a^d off d = 1/2, recorded before any change to this path: no
    # artifact digest reaches these last bits
    w = _power_weights([2, 1], Fraction(3, 10), 128)
    assert w == [899659787947194537264908539491711893990789761697, 2 ** 159]
    w = _power_weights([3, 2, 1], Fraction(9, 10), 64)
    assert w == [106477713693440827819239620250, 73922489484648400261770217735,
                 2 ** 95]


def _mpmath_root(a: int, wp: int) -> tuple[int, int]:
    """mpmath's `(man, exp)` for the square root of `a` rounded to `wp` bits,
    the formula `_power_weights` uses for every other `d`."""
    half = mpf_div(from_int(1), from_int(2), wp, round_nearest)
    root = mpf_pow(from_int(a, wp, round_nearest), half, wp, round_nearest)
    return root[1:3]


_R53 = (1 << 53) + 1                  # odd, wp + 1 bits at wp = 53
_R128 = (1 << 128) + (1 << 64) + 3    # odd, wp + 1 bits at wp = 128


@given(st.integers(min_value=1, max_value=2 ** 800),
       st.integers(min_value=1, max_value=300))
@example(1, 1)
@example(1, 160)
@example(2 ** 7, 53)
@example(2 ** 8, 53)
@example(2 ** 699, 1)
@example(2 ** 700, 160)
@example(2 ** 200 + 2 ** 100 + 1, 53)           # rounded to wp bits first
# ties at wp bits whose root tells the rounding: odd up, even down
@example((8816951084454569 << 10) + (1 << 9), 53)
@example((8250096893649316 << 10) + (1 << 9), 53)
@example(((1 << 100) + 1) ** 2, 53)             # square, root past wp bits
@example(_R53 ** 2, 53)
@example(_R53 ** 2 + 1, 53)
@example(_R53 ** 2 - 1, 53)
@example(_R128 ** 2, 128)
@example(_R128 ** 2 + 1, 128)
@example(_R128 ** 2 - 1, 128)
@settings(max_examples=300)
def test_sqrt_nearest_matches_mpmath(a, wp):
    man, exp = _sqrt_nearest(a, wp)
    assert man & 1 and man.bit_length() <= wp
    assert (man, exp) == _mpmath_root(a, wp)


@given(st.lists(st.integers(min_value=1, max_value=2 ** 300), min_size=1,
                max_size=6),
       st.integers(min_value=1, max_value=300))
@example([2, 1], 128)
@example([3, 12], 53)
@settings(max_examples=200)
def test_half_power_weights_match_mpmath(lengths, prec):
    g = math.gcd(*lengths)
    reduced = [a // g for a in lengths]
    roots = [math.isqrt(a) for a in reduced]
    if all(r * r == a for r, a in zip(roots, reduced)):
        want = roots
    else:
        powers = [_mpmath_root(a, prec + _GUARD_BITS) for a in reduced]
        low = min(exp for _, exp in powers)
        want = [man << (exp - low) for man, exp in powers]
    assert _power_weights(lengths, Fraction(1, 2), prec) == want


def _exact_branch(lo: Fraction, hi: Fraction) -> ImageBranch:
    """[lo, hi] over the lcm of its endpoints' denominators."""
    den = math.lcm(lo.denominator, hi.denominator)
    return ImageBranch(int(lo * den), int(hi * den), den, 0, True)


def _two_siblings(a: Fraction, b: Fraction) -> ImageTree:
    """A one-level image: children [1/3, 1/3 + a] and [1, 1 + b] under
    their hull, each over its own denominator."""
    left = (Fraction(1, 3), Fraction(1, 3) + a)
    right = (Fraction(1), 1 + b)
    levels = [[_exact_branch(left[0], right[1])],
              [_exact_branch(*left), _exact_branch(*right)]]
    return ImageTree(128, levels)


@pytest.mark.parametrize("a,b,d,masses", [
    ("1/2", "2", "1/2", ("1/3", "2/3")),
    ("1/3", "3", "1/2", ("1/4", "3/4")),
    ("1/3", "9", "1/3", ("1/4", "3/4")),
    ("2/7", "54/7", "2/3", ("1/10", "9/10")),
])
def test_exact_weights_from_exact_length_ratios(a, b, d, masses):
    # neither length has an exact d-th power, their ratio does: the split is
    # exact, whatever the lengths' common denominator
    got = mu_masses(build_mu_d(_two_siblings(Fraction(a), Fraction(b)),
                               Fraction(d)))[1]
    assert got == [Fraction(m) for m in masses]
    assert sum(got) == 1


@lru_cache(maxsize=None)
def _image(name, map_text):
    return image_tree(parse_map(map_text), _tree(name, 3))


@pytest.mark.parametrize("d", [0.5, 0.7, 0.6309297535714574])
@pytest.mark.parametrize("map_text", ["power:1/2", "power:2+affine:3,-1",
                                      "pl:0,0;1/2,1/3;1,1"])
@pytest.mark.parametrize("name", ["cantor3", "wide10", "skew10", "padded2"])
def test_mu_d_matches_oracle(name, map_text, d):
    img = _image(name, map_text)
    mu = build_mu_d(img, d)
    want = oracle_mu_d(img, mu.d)
    tol = Fraction(1, 2 ** img.precision_bits)
    for k, (got, ref) in enumerate(zip(mu_masses(mu), want)):
        assert sum(got) == 1, k
        assert all(abs(g - r) <= tol * r for g, r in zip(got, ref)), k
    ratios = [max(float(m) / float(br.hi - br.lo) ** float(mu.d)
                  for br, m in zip(img.levels[k], want[k]))
              for k in range(1, img.m_max + 1)]
    assert prop1_ratio_series(mu).ratios == ratios


def test_power_map_mass_conservation():
    img = image_tree(PowerMap(Fraction(2)), _tree("cantor3", 5))
    masses = mu_masses(build_mu_d(img, 0.7))
    for k in range(6):
        total = sum(masses[k])
        assert total == 1  # exact: normalization divides by the exact sum


def test_sibling_mass_monotone_in_length():
    img = image_tree(PowerMap(Fraction(2)), _tree("wide10", 2))
    mu = build_mu_d(img, 0.6)
    m = img.m_max
    by_parent = {}
    for br, mass in zip(img.levels[m], mu_masses(mu)[m]):
        by_parent.setdefault(br.parent, []).append((br.length, mass))
    for kids in by_parent.values():
        kids.sort()
        for (l1, m1), (l2, m2) in zip(kids, kids[1:]):
            assert m1 <= m2


def test_mu_d_rejects_bad_exponent():
    img = image_tree(IdentityMap(), _tree("cantor3", 2))
    with pytest.raises(DomainError):
        build_mu_d(img, 1.5)


@pytest.mark.parametrize("d", [1e-13, 0.9999999999999])
def test_exponent_rounding_to_0_or_1_rejected(d):
    # the float lies in (0, 1), but its rational at denominators up to 10^12
    # is 0 or 1: mu_d would split by length^0 or length^1
    img = image_tree(IdentityMap(), _tree("cantor3", 2))
    with pytest.raises(DomainError, match=f"d={d} rounds to"):
        build_mu_d(img, d)


# -- ratio series -----------------------------------------------------------

def test_negative_control_growth_factor():
    img = image_tree(IdentityMap(), _tree("cantor3", 8))
    rs = prop1_ratio_series(build_mu_d(img, 0.9))
    factor = 3 ** 0.9 / 2
    for a, b in zip(rs.ratios, rs.ratios[1:]):
        assert abs(b / a - factor) < 1e-9
    assert rs.growth_rate > 0


_PAIRS_APART = MoranSpec(
    constant(4, "n"), constant(Fraction(1, 6), "c"), constant(0, "L"),
    constant(0, "R"), GapPolicy("weighted", weights=(1, 2, 3)))


@given(level_specs().filter(lambda spec: spec.gaps.node_independent),
       st.integers(2, 4),
       st.sampled_from(["identity", "affine:3,-1", "affine:1/7,2+affine:5,0"]),
       st.sampled_from([Fraction(1, 2), Fraction(3, 10)]))
@example(_PAIRS_APART, 2, "affine:3,-1", Fraction(3, 10))
@settings(max_examples=60, deadline=None)
def test_template_ratio_series_equals_explicit(spec, depth, map_text, d):
    # M = 2 refines a stage of n_k = 4 in two steps, into two pairs whose
    # lengths differ on weighted gaps (weights 1, 2, 3 in the example), so
    # the template's cell hangs under the heaviest of unequal masses and
    # d = 3/10 takes mpmath weights
    steps = [spec.n(k).bit_length() - 1 for k in range(1, depth + 1)]
    schedule = Schedule(2, steps, [0, *accumulate(steps)])
    trees = [build_T(spec, schedule, mode=mode) for mode in ("auto", "explicit")]
    assert [tree.mode for tree in trees] == ["template", "explicit"]
    fmap = parse_map(map_text)
    template, explicit = (prop1_ratio_series(build_mu_d(image_tree(fmap, tree), d))
                          for tree in trees)
    assert template == explicit


def test_dim1_binary_ratio_series_vs_oracle():
    rs = prop1_ratio_series(build_mu_d(
        image_tree(IdentityMap(), _tree("dim1_binary", 30, mode="auto")), 0.9))
    expected = dim1_binary_prop1_log_ratios(0.9, 30)
    assert len(rs.ratios) == len(expected)
    assert all(abs(math.log(r) - e) < 1e-9
               for r, e in zip(rs.ratios, expected))
    assert rs.growth_rate < 0.02


# -- statistics -------------------------------------------------------------

def test_cantor3_stats_values():
    stats = stats_series(_tree("cantor3", 6, mode="auto"))
    assert all(b == Fraction(1, 3) for b in stats.beta)
    assert all(t == Fraction(2, 3) for t in stats.theta)
    assert all(c == Fraction(1, 3) for c in stats.chi)
    assert all(k == Fraction(1, 3) for k in stats.kappa)
    assert stats.l_T == [Fraction(2, 3) ** m for m in range(6)]


def test_wide10_intermediate_chi_bound():
    spec = preset("wide10")
    tree = _tree("wide10", 3, mode="auto")
    stats = stats_series(tree)
    star = tree.star
    st1 = star.stats(1)
    bound = (4 * star.delta_star(1) + 3 * st1.max_gap) / star.delta_star(0)
    assert stats.chi[0] <= bound
    assert all(c < 1 for c in stats.chi)


def test_refinement_length_bound():
    # child length fraction vs the gap bound, exact, wherever positive
    for name in ("cantor3", "wide10", "padded2"):
        tree = _tree(name, 4, mode="auto")
        stats = stats_series(tree)
        M2 = tree.schedule.M ** 2
        for b, t in zip(stats.beta, stats.theta):
            if 1 - (M2 + 1) * b > 0:
                assert t >= 1 - (M2 + 1) * b


def test_stats_series_reads_each_level_once(monkeypatch):
    # wide10 stages refine in two steps: the trimmed gaps come from each
    # stage's milestone level, so no trimmed-stats read (on seeded gaps
    # each read enumerates the stage's parents again), and one branch_stats
    # per level
    tree = _tree("wide10", 3)
    reads = {"star": [], "branch": []}
    star_stats, branch_stats = StarState.stats, BranchTree.branch_stats
    monkeypatch.setattr(StarState, "stats", lambda self, k: (
        reads["star"].append(k), star_stats(self, k))[1])
    monkeypatch.setattr(BranchTree, "branch_stats", lambda self, m: (
        reads["branch"].append(m), branch_stats(self, m))[1])
    stats = stats_series(tree)
    assert tree.schedule.i == [2, 2, 2]
    assert reads == {"star": [], "branch": list(range(6))}
    assert stats.m_top == 5


def test_stats_series_needs_a_milestone():
    # wide10's stages refine in two steps, so a tree built to level 3 ends
    # inside stage 2, whose trimmed gaps only milestone level 4 holds
    spec = preset("wide10")
    sched = choose_M(spec, "A", 3)
    assert sched.m == [0, 2, 4, 6]
    with pytest.raises(DomainError, match=r"m_max = 3 is out of range: .* "
                       r"milestone m_max >= 2 \(milestones \[0, 2, 4, 6\]\)"):
        stats_series(build_T(spec, sched, 3))


@pytest.mark.parametrize("name,mode", [
    ("wide10", "auto"), ("wide10", "explicit"), ("skew10", "explicit"),
    ("cantor3", "auto"), ("padded2", "explicit")])
def test_stats_series_at_each_milestone_is_a_prefix(name, mode):
    # a tree built to milestone m_k holds the full tree's levels 0..m_k, so
    # each of its series is the full tree's, cut at m_top = m_k - 1
    spec = preset(name)
    sched = choose_M(spec, "A", 3)
    full = stats_series(build_T(spec, sched, mode=mode))
    series = [f.name for f in dataclasses.fields(QsStats) if f.name != "m_top"]
    for m_k in (m for m in sched.m if m >= 2):
        got = stats_series(build_T(spec, sched, m_k, mode=mode))
        assert got.m_top == m_k - 1
        for field in series:
            got_list, full_list = getattr(got, field), getattr(full, field)
            assert len(got_list) == m_k - (field != "l_T"), (m_k, field)
            assert got_list == full_list[:len(got_list)], (m_k, field)


# -- sampling audits --------------------------------------------------------

def test_sandwich_identity_and_affine():
    for fmap in (IdentityMap(), AffineMap(Fraction(3), Fraction(-1))):
        fit = sandwich_audit(fmap, (0, 1), 800, 5)
        assert fit.p == 1.0
        assert fit.q == 1.0
        assert fit.lam == 1.0


def test_sandwich_power2():
    fit = sandwich_audit(PowerMap(Fraction(2)), (0, 1), 4000, 5)
    assert fit.q <= 2.0 + 0.05
    assert fit.p >= 0.5 - 0.05


@pytest.mark.parametrize("text,domain", [
    ("affine:2,0+power:700", (0, 1)),
    ("power:2000+affine:3,0", (0, 3)),
    ("identity", (Fraction(0), Fraction(10) ** 400)),
])
def test_sandwich_past_float_range_names_the_map(text, domain):
    fmap = parse_map(text)
    with pytest.raises(PrecisionError, match=re.escape(fmap.describe())):
        sandwich_audit(fmap, domain, 200, 5)
