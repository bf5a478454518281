"""Map families, image hierarchies, length-power measures, statistics."""

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranset.branchtree import build_T, choose_M
from moranset.errors import (ConfigError, DomainError, InvalidSpecError,
                             PrecisionError)
from moranset.oracle import dim1_binary_prop1_log_ratios, oracle_mu_d
from moranset.qsmap import (_GUARD_BITS, AffineMap, CompositionMap,
                            IdentityMap, ImageBranch, ImageTree,
                            PiecewiseLinearMap, PowerMap, _floor_root, build_mu_d, image_tree,
                            parse_map, prop1_ratio_series,
                            prop1_ratio_series_uniform, sandwich_audit,
                            stats_series)
from moranset.reconstruct import first_reconstruct
from moranset.specs import preset


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
    with pytest.raises(InvalidSpecError):
        AffineMap(Fraction(-1), Fraction(0))
    with pytest.raises(InvalidSpecError):
        PowerMap(Fraction(0))
    with pytest.raises(InvalidSpecError):
        PiecewiseLinearMap([(Fraction(0), Fraction(0)),
                            (Fraction(1), Fraction(0))])


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
    tree = _tree("cantor3", 3, mode="template")
    with pytest.raises(DomainError):
        image_tree(IdentityMap(), tree)


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


def test_large_exponent_enclosure_certified():
    tree = _tree("cantor3", 2)
    img = image_tree(parse_map("power:1000/999"), tree)
    for src, dst in zip(tree.explicit[2], img.levels[2]):
        assert dst.lo ** 999 <= src.lo ** 1000 and src.hi ** 1000 <= dst.hi ** 999


# -- length-power measure ---------------------------------------------------

@pytest.mark.parametrize("d", [0.3, 0.5, 0.9])
def test_identity_cantor3_masses_exact(d):
    img = image_tree(IdentityMap(), _tree("cantor3", 5))
    mu = build_mu_d(img, d)
    for k in range(6):
        assert all(m == Fraction(1, 2 ** k) for m in mu.masses[k])
        assert sum(mu.masses[k]) == 1


def test_unequal_siblings_split():
    from moranset.qsmap import _power_weights
    w = _power_weights([4, 1], Fraction(1, 2), 128)
    assert w == [2, 1]
    w = _power_weights([1, 1], Fraction(1, 2), 128)
    assert w == [1, 1]


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
    mu = build_mu_d(_two_siblings(Fraction(a), Fraction(b)), Fraction(d))
    assert mu.masses[1] == [Fraction(m) for m in masses]
    assert sum(mu.masses[1]) == 1


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
    for k, (got, ref) in enumerate(zip(mu.masses, want)):
        assert sum(got) == 1, k
        assert all(abs(g - r) <= tol * r for g, r in zip(got, ref)), k
    ratios = [max(float(m) / float(br.hi - br.lo) ** float(mu.d)
                  for br, m in zip(img.levels[k], want[k]))
              for k in range(1, img.m_max + 1)]
    assert prop1_ratio_series(mu).ratios == ratios


def test_power_map_mass_conservation():
    img = image_tree(PowerMap(Fraction(2)), _tree("cantor3", 5))
    mu = build_mu_d(img, 0.7)
    for k in range(6):
        total = sum(mu.masses[k])
        assert total == 1  # exact: normalization divides by the exact sum


def test_sibling_mass_monotone_in_length():
    img = image_tree(PowerMap(Fraction(2)), _tree("wide10", 2))
    mu = build_mu_d(img, 0.6)
    m = img.m_max
    by_parent = {}
    for br, mass in zip(img.levels[m], mu.masses[m]):
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
    with pytest.raises(DomainError, match=f"d={d} rounds to"):
        prop1_ratio_series_uniform(first_reconstruct(preset("cantor3"), 2), d, 2)


# -- ratio series -----------------------------------------------------------

def test_negative_control_growth_factor():
    img = image_tree(IdentityMap(), _tree("cantor3", 8))
    rs = prop1_ratio_series(build_mu_d(img, 0.9))
    factor = 3 ** 0.9 / 2
    for a, b in zip(rs.ratios, rs.ratios[1:]):
        assert abs(b / a - factor) < 1e-9
    assert rs.growth_rate > 0


def test_uniform_closed_form_matches_explicit():
    tree = _tree("cantor3", 6)
    img = image_tree(IdentityMap(), tree)
    rs = prop1_ratio_series(build_mu_d(img, 0.5))
    rs_u = prop1_ratio_series_uniform(tree.star, 0.5, 6)
    assert all(abs(a - b) < 1e-12 for a, b in zip(rs.ratios, rs_u.ratios))


def test_dim1_binary_ratio_series_vs_oracle():
    star = first_reconstruct(preset("dim1_binary"), 30)
    rs = prop1_ratio_series_uniform(star, 0.9, 30)
    expected = dim1_binary_prop1_log_ratios(0.9, 30)
    assert all(abs(math.log(r) - e) < 1e-9
               for r, e in zip(rs.ratios, expected))
    assert rs.growth_rate < 0.02


# -- statistics -------------------------------------------------------------

def test_cantor3_stats_values():
    stats = stats_series(_tree("cantor3", 6, mode="template"), 5)
    assert all(b == Fraction(1, 3) for b in stats.beta)
    assert all(t == Fraction(2, 3) for t in stats.theta)
    assert all(c == Fraction(1, 3) for c in stats.chi)
    assert all(k == Fraction(1, 3) for k in stats.kappa)
    assert stats.l_T == [Fraction(2, 3) ** m for m in range(6)]


def test_wide10_intermediate_chi_bound():
    spec = preset("wide10")
    tree = _tree("wide10", 3, mode="template")
    stats = stats_series(tree, 4)
    star = tree.star
    st1 = star.stats(1)
    bound = (4 * star.delta_star(1) + 3 * st1.max_gap) / star.delta_star(0)
    assert stats.chi[0] <= bound
    assert all(c < 1 for c in stats.chi)


def test_refinement_length_bound():
    # child length fraction vs the gap bound, exact, wherever positive
    for name in ("cantor3", "wide10", "padded2"):
        tree = _tree(name, 4, mode="template")
        stats = stats_series(tree)
        M2 = tree.schedule.M ** 2
        for b, t in zip(stats.beta, stats.theta):
            if 1 - (M2 + 1) * b > 0:
                assert t >= 1 - (M2 + 1) * b


# -- sampling audits --------------------------------------------------------

def test_sandwich_identity_and_affine():
    for fmap in (IdentityMap(), AffineMap(Fraction(3), Fraction(-1))):
        fit = sandwich_audit(fmap, (0, 1), 800, 5)
        assert fit.p == 1.0
        assert abs(fit.q - 1.0) < 1e-9
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
