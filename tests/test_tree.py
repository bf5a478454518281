"""Level enumeration, statistics, and serialization."""

import io
import json
import tracemalloc
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranset.dimension import box_count
from moranset.errors import BudgetExceededError, DomainError
from moranset.oracle import naive_box_count, oracle_level
from moranset.reconstruct import StarState
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
