"""Level enumeration, statistics, and serialization."""

import io
import json
import tracemalloc
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import islice
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranset.dimension import box_count
from moranset.errors import BudgetExceededError, DomainError
from moranset.oracle import naive_box_count, oracle_level
from moranset.reconstruct import StarState
from moranset import tree
from moranset.specs import GapPolicy, MoranSpec, SequenceRule, constant, preset
from moranset.tree import (DEFAULT_NODE_BUDGET, Node, build_level,
                           export_level, iter_addresses, iter_level,
                           level_stats)


def test_cantor3_level2_exact():
    nodes = build_level(preset("cantor3"), 2).nodes
    got = [(n.lo, n.hi) for n in nodes]
    assert got == [
        (Fraction(0), Fraction(1, 9)),
        (Fraction(2, 9), Fraction(1, 3)),
        (Fraction(2, 3), Fraction(7, 9)),
        (Fraction(8, 9), Fraction(1)),
    ]
    assert [n.address for n in nodes] == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_level_zero_is_initial_interval():
    lv = build_level(preset("wide10"), 0)
    assert len(lv) == 1
    assert (lv.nodes[0].lo, lv.nodes[0].hi) == (Fraction(0), Fraction(1))


def test_skew10_level1_gap_sum():
    s = preset("skew10")
    nodes = build_level(s, 1).nodes
    assert len(nodes) == 10
    assert all(n.length == Fraction(1, 20) for n in nodes)
    gap_sum = sum(b.lo - a.hi for a, b in zip(nodes, nodes[1:]))
    assert gap_sum == s.slack(1) == Fraction(1, 2)


@pytest.mark.parametrize("name", ["cantor3", "wide10", "skew10", "padded2"])
def test_consistency_equation_per_parent(name):
    # children plus all gaps tile the parent exactly
    spec = preset(name)
    for k in (1, 2):
        parents = build_level(spec, k - 1).nodes
        children = build_level(spec, k).nodes
        n = spec.n(k)
        for i, p in enumerate(parents):
            kids = children[i * n:(i + 1) * n]
            total = spec.L(k) + spec.R(k) + sum(c.length for c in kids)
            total += sum(b.lo - a.hi for a, b in zip(kids, kids[1:]))
            assert total == p.length


def test_nested_cover():
    spec = preset("wide10")
    parents = build_level(spec, 1).nodes
    for child in build_level(spec, 2).nodes:
        assert sum(1 for p in parents
                   if p.lo <= child.lo and child.hi <= p.hi) == 1


def test_iter_level_matches_build():
    spec = preset("skew10")
    assert list(iter_level(spec, 2)) == build_level(spec, 2).nodes


def test_budget_exceeded():
    with pytest.raises(BudgetExceededError):
        build_level(preset("cantor3"), 5, budget=16)


def test_level_stats_wide10():
    st_ = level_stats(preset("wide10"), 1)
    assert st_.max_gap == st_.min_gap == Fraction(1, 18)
    assert st_.count == 10 and st_.total_length == Fraction(1, 2)


def test_level_stats_cantor3_level2():
    st_ = level_stats(preset("cantor3"), 2)
    assert st_.max_gap == st_.min_gap == Fraction(1, 9)


def test_level_stats_below_level_one_is_a_domain_error():
    with pytest.raises(DomainError, match="level 0 is out of range"):
        level_stats(preset("cantor3"), 0)


def test_level_stats_skew10_enumerates_all_parents():
    st_ = level_stats(preset("skew10"), 2)
    assert st_.min_gap <= st_.max_gap
    assert st_.min_gap > 0


def _read_back(buf):
    """(level, address, lo, hi) per exported record, endpoints exact."""
    return [(rec["level"], tuple(rec["address"]),
             Fraction(rec["lo"]), Fraction(rec["hi"]))
            for rec in map(json.loads, buf.getvalue().splitlines())]


def _records(lv):
    return [(lv.level, n.address, n.lo, n.hi) for n in lv.nodes]


def test_export_format_and_roundtrip():
    lv = build_level(preset("cantor3"), 1)
    buf = io.StringIO()
    export_level(lv, buf)
    lines = buf.getvalue().strip().split("\n")
    assert len(lines) == 2
    assert '"lo": "0/1"' in lines[0] and '"hi": "1/3"' in lines[0]
    assert _read_back(buf) == _records(lv)


@given(st.integers(0, 2**31), st.integers(1, 3))
@settings(max_examples=20)
def test_roundtrip_skew_levels(seed, k):
    from moranset.specs import GapPolicy, MoranSpec, constant
    spec = MoranSpec(constant(3), constant(Fraction(1, 5)),
                     constant(Fraction(0)), constant(Fraction(0)),
                     GapPolicy("seeded-random", seed=seed))
    lv = build_level(spec, k)
    buf = io.StringIO()
    export_level(lv, buf)
    assert _read_back(buf) == _records(lv)


def test_iter_addresses_order():
    spec = preset("cantor3")
    assert list(iter_addresses(spec, 2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]


@st.composite
def level_specs(draw):
    """Constructions with rational boundary gaps on both sides, a periodic
    contraction and an initial interval off the unit one, so every level
    denominator mixes several primes; the gaps are uniform, weighted or
    seeded-random."""
    n = draw(st.integers(2, 4))
    cs = []
    for _ in range(draw(st.integers(1, 2))):
        b = draw(st.integers(n + 1, 4 * n + 3))
        cs.append(Fraction(draw(st.integers(1, (b - 1) // n)), b))
    lo = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 7)))
    width = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 5)))
    l_share = Fraction(draw(st.integers(0, 3)), 10)
    r_share = Fraction(draw(st.integers(0, 3)), 10)

    def free(k):
        # what the n_k children leave of a level-(k-1) interval
        parent = width
        for j in range(1, k):
            parent *= cs[(j - 1) % len(cs)]
        return parent * (1 - n * cs[(k - 1) % len(cs)])

    kind = draw(st.sampled_from(["uniform", "weighted", "seeded-random"]))
    if kind == "uniform":
        gaps = GapPolicy("uniform")
    elif kind == "seeded-random":
        gaps = GapPolicy("seeded-random", seed=draw(st.integers(0, 2**31)))
    else:
        # zero weights allowed, so touching neighbours occur, but not on
        # every one of the n - 1 interior gaps
        weights = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)
                       .filter(lambda w: sum(w[i % len(w)] for i in range(n - 1)) > 0))
        gaps = GapPolicy("weighted", weights=tuple(map(Fraction, weights)))
    return MoranSpec(
        constant(n, "n"), SequenceRule("periodic", tuple(cs), name="c"),
        SequenceRule("table-function", func=lambda k: l_share * free(k), name="L"),
        SequenceRule("table-function", func=lambda k: r_share * free(k), name="R"),
        gaps, interval=(lo, lo + width))


@given(level_specs(), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_lattice_levels_match_oracle(spec, k):
    if not spec.gaps.node_independent:
        k = min(k, 3)            # every parent draws its own gaps
    addresses = list(iter_addresses(spec, k))
    star = StarState(spec, k)
    for want, levels in (
            (oracle_level(spec, k),
             (build_level(spec, k).nodes, list(iter_level(spec, k)))),
            (oracle_level(spec, k, trimmed=True),
             (star.level(k).nodes, list(star.iter_level(k))))):
        for nodes in levels:
            assert [(nd.lo, nd.hi) for nd in nodes] == want
            assert [nd.address for nd in nodes] == addresses


@given(level_specs(), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_level_stats_gap_extremes_match_oracle(spec, k):
    # the sibling gaps lo_{i+1} - hi_i within each parent's run of n_k
    # intervals of the independent level, plain and trimmed
    n = spec.n(k)

    def sibling_gaps(level):
        return [b[0] - a[1] for i in range(0, len(level), n)
                for a, b in zip(level[i:i + n], level[i + 1:i + n])]

    base = sibling_gaps(oracle_level(spec, k))
    trimmed = sibling_gaps(oracle_level(spec, k, trimmed=True))
    st_ = level_stats(spec, k)
    assert (st_.max_gap, st_.min_gap) == (max(base), min(base))
    star = StarState(spec, k).stats(k)
    assert (star.max_gap, star.min_gap) == (max(trimmed), min(trimmed))
    shift = spec.L(k + 1) + spec.R(k + 1)
    assert (star.max_gap, star.min_gap) == (max(base) + shift, min(base) + shift)


def test_deep_level_streams_in_little_memory():
    spec = preset("cantor3")
    for depth in (30, 40):
        assert spec.count(depth) > DEFAULT_NODE_BUDGET
        star = StarState(spec, depth)
        tracemalloc.start()
        try:
            plain = list(islice(iter_level(spec, depth), 1000))
            trimmed = list(islice(star.iter_level(depth), 1000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"peak {peak} bytes while streaming depth {depth}"
        assert plain == trimmed                   # cantor3 trims nothing
        assert plain[0].address == (1,) * depth
        assert (plain[0].lo, plain[0].hi) == (0, Fraction(1, 3**depth))
        assert plain[1].lo == Fraction(2, 3**depth)
        assert [nd.address for nd in plain] == list(
            islice(iter_addresses(spec, depth), 1000))
    # on a small level with boundary gaps, streamed equals materialized
    padded = preset("padded2")
    star = StarState(padded, 4)
    assert list(iter_level(padded, 4)) == build_level(padded, 4).nodes
    assert list(star.iter_level(4)) == star.level(4).nodes


def _weighted3() -> MoranSpec:
    """Unequal weighted gaps under a periodic contraction, so level
    denominators are not reduced."""
    return MoranSpec(constant(3), SequenceRule("periodic", (Fraction(1, 5),
                                                            Fraction(1, 7))),
                     constant(Fraction(0)), constant(Fraction(0)),
                     GapPolicy("weighted", weights=(Fraction(1), Fraction(3))),
                     name="weighted3")


def test_export_matches_json_dumps():
    for spec, k in ((preset("padded2"), 0), (preset("padded2"), 1),
                    (preset("padded2"), 3), (preset("skew10", seed=7), 3),
                    (_weighted3(), 2), (_weighted3(), 4)):
        lv = build_level(spec, k)
        buf = io.StringIO()
        export_level(lv, buf)
        assert buf.getvalue() == "".join(
            json.dumps({"level": k, "address": list(nd.address),
                        "lo": f"{nd.lo.numerator}/{nd.lo.denominator}",
                        "hi": f"{nd.hi.numerator}/{nd.hi.denominator}"}) + "\n"
            for nd in lv.nodes)


def test_node_equality_across_denominators():
    a = (1, 2)
    x, y = Node(a, 1, 2, 6), Node(a, 2, 4, 12)
    assert x == y and hash(x) == hash(y)
    assert x != Node((1, 1), 1, 2, 6)
    assert x != Node(a, 1, 3, 6)
    assert x != (Fraction(1, 6), Fraction(1, 3))
    assert repr(y) == ("Node(address=(1, 2), lo=Fraction(1, 6), "
                       "hi=Fraction(1, 3))")


def test_node_endpoints_are_reduced_fractions():
    nd = Node((2,), 4, 10, 12)
    for got, want in ((nd.lo, (1, 3)), (nd.hi, (5, 6)), (nd.length, (1, 2))):
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == want
    assert (nd.lo_num, nd.hi_num, nd.den) == (4, 10, 12)


@given(level_specs(), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_box_count_reads_nodes_as_pairs(spec, k):
    if not spec.gaps.node_independent:
        k = min(k, 2)
    eps = [Fraction(1, 2 ** j) for j in range(1, 6)] + [Fraction(2, 7)]
    star = StarState(spec, k)
    for nodes in (build_level(spec, k).nodes, star.level(k).nodes):
        pairs = [(nd.lo, nd.hi) for nd in nodes]
        assert box_count(nodes, eps).counts == [
            naive_box_count(pairs, e).value for e in eps]


def test_level_holds_integers_only():
    # a held level keeps each node's address and integers, no Fraction
    spec = preset("wide10")
    tracemalloc.start()
    try:
        lv = build_level(spec, 4)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / len(lv) < 320, f"{held / len(lv):.0f} bytes per interval"


def _oracle_export(spec, k, trimmed):
    """The level-k records as `json.dumps` writes them, from the oracle's
    endpoints and `iter_addresses`."""
    return "".join(
        json.dumps({"level": k, "address": list(address),
                    "lo": f"{lo.numerator}/{lo.denominator}",
                    "hi": f"{hi.numerator}/{hi.denominator}"}) + "\n"
        for address, (lo, hi) in zip(iter_addresses(spec, k),
                                     oracle_level(spec, k, trimmed=trimmed)))


def _exported(lv):
    buf = io.StringIO()
    export_level(lv, buf)
    return buf.getvalue()


@given(level_specs(), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_export_matches_oracle(spec, k):
    if not spec.gaps.node_independent:
        k = min(k, 3)
    assert _exported(build_level(spec, k)) == _oracle_export(spec, k, False)
    assert _exported(StarState(spec, k).level(k)) == _oracle_export(spec, k, True)


@pytest.mark.parametrize("name, k, trimmed, heads", [
    ("cantor3", 0, False, 1), ("cantor3", 1, True, 1), ("skew10", 1, False, 1),
    ("cantor3", 11, False, 2), ("padded2", 12, True, 4), ("wide10", 5, False, 10),
    ("skew10", 3, True, 100)])
def test_multi_run_export_matches_oracle(name, k, trimmed, heads):
    # levels whose tail is shared by several heads, and a seeded level with
    # one run per parent
    spec = preset(name)
    lv = StarState(spec, k).level(k) if trimmed else build_level(spec, k)
    assert len(lv.runs) == heads
    assert _exported(lv) == _oracle_export(spec, k, trimmed)


def test_level_makes_no_nodes_until_read(monkeypatch):
    # building and exporting a level makes no per-interval record, and a
    # held level keeps its runs' integers and one shared tail of addresses
    def no_node(*args):
        raise AssertionError("a Node was made")
    spec = preset("wide10")
    with monkeypatch.context() as patch:
        patch.setattr(Node, "__init__", no_node)
        lv = build_level(spec, 5)
        export_level(lv, io.StringIO())
        assert len(lv) == spec.count(5)
    del lv
    tracemalloc.start()
    try:
        lv = build_level(spec, 5)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / len(lv) < 64, f"{held / len(lv):.0f} bytes per interval"


def test_level_set_contract(monkeypatch):
    spec = preset("padded2")
    lv = build_level(spec, 6)
    assert len(lv) == spec.count(6)
    assert lv.nodes == lv.nodes and lv.nodes is not lv.nodes   # made on read
    top, = StarState(spec, 0).level(0)       # as `branchtree.build_T` reads it
    assert [(top.lo, top.hi)] == oracle_level(spec, 0, trimmed=True)
    with pytest.raises(DomainError):
        iter_level(spec, -1)                 # at the call, not on next()

    def no_walk(*args):
        raise AssertionError("a run was walked")
    monkeypatch.setattr(tree, "_walk", no_walk)
    monkeypatch.setattr(tree, "_prescaled", no_walk)
    with pytest.raises(BudgetExceededError):
        build_level(preset("cantor3"), 22)


def test_node_independent_levels_read_one_table(monkeypatch):
    # the offset table `_prescaled` is built once per spec and depth; a
    # node-independent level built again from it walks no parent and reads
    # no child offsets, plain or trimmed
    spec = preset("padded2")

    def exported(level):
        fp = io.StringIO()
        export_level(level, fp)
        return fp.getvalue()
    star = StarState(spec, 12)
    want = [exported(build_level(spec, 12)), exported(star.level(12))]

    def no_call(*args):
        raise AssertionError("a level walked its parents")
    monkeypatch.setattr(MoranSpec, "child_offsets", no_call)
    monkeypatch.setattr(tree, "_walk", no_call)
    assert [exported(build_level(spec, 12)), exported(star.level(12))] == want


@st.composite
def _rank_query(draw, los, his, hull):
    """A left endpoint, one or half a unit of M either side of one (M the
    lcm of the endpoints' denominators), a point inside a gap or an
    interval, a point left or right of the hull, or a random rational."""
    m = lcm(*(x.denominator for x in los))
    kind = draw(st.sampled_from(["endpoint", "unit", "half", "gap", "inside",
                                 "outside", "random"]))
    x = draw(st.sampled_from(los))
    if kind == "endpoint":
        return x
    if kind in ("unit", "half"):
        step = Fraction(1, m) if kind == "unit" else Fraction(1, 2 * m)
        return x + draw(st.sampled_from([-step, step]))
    if kind == "gap":
        gaps = [(hi + lo) / 2 for hi, lo in zip(his, los[1:]) if lo > hi]
        return draw(st.sampled_from(gaps)) if gaps else x
    if kind == "inside":
        return x + (his[0] - los[0]) / 3
    if kind == "outside":
        width = hull[1] - hull[0]
        return draw(st.sampled_from([hull[0] - width / 7, hull[0] - 1,
                                     hull[1] + width / 7, hull[1] + 1]))
    return draw(st.fractions(hull[0] - 1, hull[1] + 1, max_denominator=10**6))


#: `test_rank_matches_bisect` on `skew10`, whose level-2 parents' offset
#: denominators do not all divide the level-1 one, as well as on drawn specs.
SKEW = "skew10"


@pytest.mark.parametrize("source", ["level_specs", SKEW])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_rank_matches_bisect(source, data):
    if source == SKEW:
        spec, k = preset(SKEW), data.draw(st.integers(0, 2), label="k")
    else:
        spec = data.draw(level_specs(), label="spec")
        k = data.draw(st.integers(0, 3), label="k")
    for trimmed in (False, True):
        level = oracle_level(spec, k, trimmed=trimmed)
        los, his = [lo for lo, _ in level], [hi for _, hi in level]
        y = data.draw(_rank_query(los, his, spec.interval), label="y")
        for find in (bisect_left, bisect_right):
            want = find(los, y)
            if trimmed:
                star = StarState(spec, k)
                assert star.rank(k, y, find) == want
                assert star.rank(k, y.numerator * 3, find, y.denominator * 3) == want
            else:
                assert tree.rank(spec, k, y, find) == want
                assert tree.rank(spec, k, y.numerator * 6, find,
                                 y.denominator * 6) == want


def test_seeded_rank_widens_its_denominator():
    # the parents of skew10's level 2 have offset denominators that the
    # level-1 one does not divide, so no one pre-scale serves the seeded
    # descent: its rest r widens to each parent's denominator as r d
    spec = preset(SKEW)
    first = spec.child_offsets((), 1)[0]
    dens = {spec.child_offsets((i,), 2)[0] for i in range(1, spec.n(1) + 1)}
    assert any(first % d for d in dens)
    assert len(dens) > 1


def test_rank_reads_prescaled_offsets(monkeypatch):
    # node-independent offsets are scaled once per spec and depth: a
    # descent through 12 levels takes no lcm and reads no child offsets
    spec = preset("padded2")
    queries = [Fraction(i, 97) for i in range(-3, 101)]
    want = [tree.rank(spec, 12, y, find) for y in queries
            for find in (bisect_left, bisect_right)]

    def no_call(*args):
        raise AssertionError("the descent rescaled its offsets")
    monkeypatch.setattr(tree, "lcm", no_call)
    monkeypatch.setattr(spec, "child_offsets", no_call)
    assert [tree.rank(spec, 12, y, find) for y in queries
            for find in (bisect_left, bisect_right)] == want
