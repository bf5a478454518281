"""Acceptance gate: one test per quantitative criterion, at stated tolerance.

Each test prints a single "criterion N: PASS/FAIL" line.  Criterion 2 states a
target the constructed family does not reach at the stated depth; the test
asserts the stated target faithfully and is expected to stay red.
"""

import math
import random
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner

from moranset.branchtree import build_T, choose_M
from moranset.cli import main as cli_main
from moranset.dimension import box_count, check_conditions, dim_formula_seq
from moranset.measure import MassMeasure, frostman_audit
from moranset.oracle import (dim1_binary_prop1_log_ratios,
                             exhaustive_mu_sweep, naive_box_count)
from moranset.qsmap import (IdentityMap, PowerMap, build_mu_d, image_tree,
                            parse_map, prop1_ratio_series,
                            prop1_ratio_series_uniform, stats_series)
from moranset.reconstruct import first_reconstruct
from moranset.specs import preset
from moranset.tree import iter_level, level_stats

LOG2_3 = math.log(2) / math.log(3)


def _report(n: int, ok: bool, detail: str):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_01_dimension_formula_exact_family():
    t0 = time.perf_counter()
    series = dim_formula_seq(preset("cantor3"), 20)
    elapsed = time.perf_counter() - t0
    err = max(abs(s - LOG2_3) for s in series.s)
    ok = err < 1e-12 and abs(series.value(20) - LOG2_3) < 1e-12 and elapsed < 1.0
    _report(1, ok, f"constant series, max |s_k - log2/log3| = {err:.2e}, "
                   f"{elapsed:.3f}s")


def test_criterion_02_dimension_one_family():
    t0 = time.perf_counter()
    series = dim_formula_seq(preset("dim1_binary"), 40)
    elapsed = time.perf_counter() - t0
    increasing = all(series.s[k] < series.s[k + 1]
                     for k in range(4, 39))  # s_5 <= ... <= s_40
    s40 = series.value(40)
    ok = s40 >= 0.99 and increasing and elapsed < 1.0
    _report(2, ok, f"s_40 = {s40:.10f} (target >= 0.99), "
                   f"increasing for k >= 5: {increasing}, {elapsed:.3f}s")


def test_criterion_03_trim_length_identity():
    ok = True
    for name in ("cantor3", "dim1_binary", "wide10", "padded2"):
        spec = preset(name)
        star = first_reconstruct(spec, 20)
        for k in range(21):
            want = spec.delta(k) - spec.L(k + 1) - spec.R(k + 1)
            if star.delta_star(k) != want:
                ok = False
    _report(3, ok, "delta*_k == delta_k - L_(k+1) - R_(k+1), exact, "
                   "4 uniform-gap constructions, k <= 20")


def _identity_suite_node_independent(spec, K):
    """Exact gap/statistic identities between base and trimmed levels."""
    star = first_reconstruct(spec, K)
    rep = lambda k: (1,) * k
    for k in range(1, K + 1):
        shift = spec.L(k + 1) + spec.R(k + 1)
        base = level_stats(spec, k)
        st = star.stats(k)
        # per-node gap shift and boundary values
        gaps = spec.interior_gaps(rep(k - 1), k)
        sgaps = star.interior_gaps(rep(k - 1), k)
        assert sgaps == tuple(g + shift for g in gaps)
        assert st.L == spec.L(k + 1) and st.R == spec.R(k + 1)
        # aggregate identities
        assert st.max_gap == base.max_gap + shift
        assert st.min_gap == base.min_gap + shift
        assert st.slack == base.slack + (spec.n(k) - 1) * shift
        # inequalities
        assert base.min_gap <= st.min_gap and base.max_gap <= st.max_gap
        assert st.L + st.R <= st.min_gap <= st.max_gap


def _identity_suite_seeded(spec, K, exact_k, samples, seed):
    """Exact aggregates at shallow levels, per-address identities sampled
    beyond the enumeration budget.  The identities are per-address with a
    level-constant shift, so sampling addresses loses no generality."""
    star = first_reconstruct(spec, K)
    for k in range(1, exact_k + 1):
        shift = spec.L(k + 1) + spec.R(k + 1)
        base = level_stats(spec, k)
        st = star.stats(k)
        assert st.max_gap == base.max_gap + shift
        assert st.min_gap == base.min_gap + shift
        assert st.slack == base.slack + (spec.n(k) - 1) * shift
        assert base.min_gap <= st.min_gap and st.L + st.R <= st.min_gap
    rng = random.Random(f"{seed}|identity-suite")
    for k in range(exact_k + 1, K + 1):
        shift = spec.L(k + 1) + spec.R(k + 1)
        for _ in range(samples):
            sigma = tuple(rng.randint(1, spec.n(j)) for j in range(1, k))
            gaps = spec.interior_gaps(sigma, k)
            sgaps = star.interior_gaps(sigma, k)
            assert sgaps == tuple(g + shift for g in gaps)
            assert shift <= min(sgaps)


def test_criterion_04_trim_identity_suite():
    for name in ("cantor3", "wide10", "padded2"):
        _identity_suite_node_independent(preset(name), 12)
    for seed in (42, 1, 2):
        _identity_suite_seeded(preset("skew10", seed=seed), 12,
                               exact_k=5, samples=30, seed=seed)
    _report(4, True, "gap-shift identities and domination inequalities, "
                     "exact, k <= 12 (per-address sampling past the "
                     "enumeration budget on the seeded construction)")


def test_criterion_05_refinement_suite():
    t0 = time.perf_counter()
    spec = preset("wide10")
    cert = check_conditions(spec, 7)
    sched = choose_M(spec, "A", 6, cert=cert)
    assert sched.M == 3 and all(i == 2 for i in sched.i)
    tree = build_T(spec, sched, sched.m[6], mode="template")
    star = tree.star
    ok = True
    totals = []
    for m in range(sched.m[6] + 1):
        bs = tree.branch_stats(m)
        totals.append(bs.total_len)
        ok &= bs.psi_max - bs.psi_min <= 1
        ok &= bs.max_len <= 2 * cert.omega1 * bs.min_len
    for m in range(sched.m[6]):
        hi, _lo = tree.children_per_branch(m)
        limit = sched.M ** 2 if (m + 1) in sched.m else sched.M
        ok &= hi <= limit
    lower = 1 - Fraction(2) * cert.omega1 / sched.M
    for k in range(1, 7):
        ok &= totals[sched.m[k]] == spec.count(k) * star.delta_star(k)
        anchor = spec.count(k - 1) * star.delta_star(k - 1)
        for m in range(sched.m[k - 1] + 1, sched.m[k]):
            ok &= lower * anchor <= totals[m] <= anchor
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _report(5, ok, f"spread <= 1, counts <= M/M^2, comparability, total-length "
                   f"sandwich, exact, depth 6, {elapsed:.2f}s")


def test_criterion_06_frostman_audit():
    t0 = time.perf_counter()
    spec = preset("cantor3")
    mm = MassMeasure(first_reconstruct(spec, 8))
    audit = frostman_audit(mm, "A", 0.6, (1, 6))
    ok = audit.passed and audit.worst_ratio <= 32
    agree = True
    for k in range(1, 7):
        per_k = frostman_audit(mm, "A", 0.6, (k, k))
        worst, witness = exhaustive_mu_sweep(spec, k, 0.6).value
        agree &= per_k.worst_ratio == worst
        agree &= (per_k.witness[0], per_k.witness[1]) == witness
    elapsed = time.perf_counter() - t0
    ok = ok and agree and elapsed < 30.0
    _report(6, ok, f"worst ratio {audit.worst_ratio:.4f} <= 32, oracle sweep "
                   f"agrees exactly at k = 1..6, {elapsed:.2f}s")


def test_criterion_07_box_count_cross_check():
    rng = random.Random(20260824)
    names = ["cantor3", "wide10", "dim1_binary", "padded2", "skew10"]
    exact = True
    for _ in range(50):
        spec = preset(rng.choice(names))
        depth = rng.randint(1, 4 if spec.n(1) == 10 else 9)
        eps = Fraction(1, rng.choice([2, 3, 5, 10]) ** rng.randint(1, 6))
        nodes = list(iter_level(spec, depth))
        intervals = [(nd.lo, nd.hi) for nd in nodes]
        got = box_count(nodes, [eps, eps / 2]).counts[0]
        want = naive_box_count(intervals, eps).value
        exact &= got == want
    eps_grid = [Fraction(1, 3 ** j) for j in range(3, 11)]
    res = box_count(iter_level(preset("cantor3"), 12), eps_grid)
    slope_err = abs(res.slope - LOG2_3)
    ok = exact and slope_err < 1e-6
    _report(7, ok, f"50/50 instances agree exactly; cantor3 slope error "
                   f"{slope_err:.2e} < 1e-6")


def test_criterion_08_measure_mass():
    sched = choose_M(preset("cantor3"), "A", 6)
    tree = build_T(preset("cantor3"), sched, 6, mode="explicit")
    ok = True
    for text in ("identity", "affine:3,-1", "power:2"):
        img = image_tree(parse_map(text), tree, precision_bits=128)
        mu = build_mu_d(img, 0.7)
        for masses in mu.masses:
            total = sum(masses)
            ok &= total == 1 if text != "power:2" else \
                abs(total - 1) < Fraction(1, 10 ** 20)
    img = image_tree(IdentityMap(), tree)
    for d in (0.3, 0.5, 0.9):
        mu = build_mu_d(img, d)
        for k, masses in enumerate(mu.masses):
            ok &= all(m == Fraction(1, 2 ** k) for m in masses)
    _report(8, ok, "mass conservation at every level (exact; power map "
                   "within 1e-20 at 128 bits); uniform branch mass 2^-k "
                   "for d in {0.3, 0.5, 0.9}, exact")


def test_criterion_09_ratio_series_controls():
    sched = choose_M(preset("cantor3"), "A", 8)
    tree = build_T(preset("cantor3"), sched, 8, mode="explicit")
    rs = prop1_ratio_series(build_mu_d(image_tree(IdentityMap(), tree), 0.9))
    factor = 3 ** 0.9 / 2
    factor_err = max(abs(b / a - factor) for a, b in zip(rs.ratios, rs.ratios[1:]))
    star = first_reconstruct(preset("dim1_binary"), 30)
    rs_neg = prop1_ratio_series_uniform(star, 0.9, 30)
    oracle = dim1_binary_prop1_log_ratios(0.9, 30)
    oracle_err = max(abs(math.log(r) - e)
                     for r, e in zip(rs_neg.ratios, oracle))
    ok = (factor_err < 1e-9 and rs.growth_rate > 0
          and rs_neg.growth_rate < 0.02 and oracle_err < 1e-9)
    _report(9, ok, f"growth factor error {factor_err:.2e} < 1e-9 (positive "
                   f"control); bounded-series growth rate "
                   f"{rs_neg.growth_rate:.5f} < 0.02 vs closed form "
                   f"(error {oracle_err:.2e})")


def test_criterion_10_trend_suite():
    t0 = time.perf_counter()
    spec = preset("dim1_binary")
    sched = choose_M(spec, "A", 64)
    tree = build_T(spec, sched, 64, mode="template")
    stats = stats_series(tree, 64)
    M = sched.M
    refine_ok = all(th >= 1 - (M ** 2 + 1) * b
                    for b, th in zip(stats.beta, stats.theta)
                    if 1 - (M ** 2 + 1) * b > 0)
    beta = [float(b) for b in stats.beta]
    log_theta = [math.log(float(t)) for t in stats.theta]

    def avg_beta(m):
        return sum(beta[:m]) / m

    def neglog_total(m):
        return -math.log(float(stats.l_T[m])) / (m * math.log(M))

    def avg_neglog_theta(m):
        return -sum(log_theta[:m]) / m

    trend_ok = True
    for m0 in (8, 16, 32):
        for fn in (avg_beta, neglog_total, avg_neglog_theta):
            vals = [fn(m) for m in range(m0, 2 * m0 + 1)]
            trend_ok &= all(b < a for a, b in zip(vals, vals[1:]))
    elapsed = time.perf_counter() - t0
    ok = refine_ok and trend_ok and elapsed < 30.0
    _report(10, ok, f"refinement length bound exact; all three averaged "
                    f"series strictly decrease over [m0, 2m0] for "
                    f"m0 in {{8, 16, 32}}, {elapsed:.2f}s")


def test_criterion_11_determinism(tmp_path):
    runner = CliRunner()
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        res = runner.invoke(cli_main,
                            ["build", "--preset", "skew10", "--depth", "4",
                             "--out", str(out)], catch_exceptions=False)
        assert res.exit_code == 0
        blobs.append(tuple((out / n).read_bytes()
                           for n in ("intervals.jsonl", "levels.csv",
                                     "manifest.json")))
    same_runs = blobs[0] == blobs[1]
    audits = []
    for threads in ("1", "4"):
        out = tmp_path / f"t{threads}"
        res = runner.invoke(cli_main,
                            ["measure-audit", "--preset", "cantor3",
                             "--t", "0.6", "--k-lo", "2", "--k-hi", "4",
                             "--mode", "sampled", "--samples", "300",
                             "--seed", "9", "--threads", threads,
                             "--out", str(out)], catch_exceptions=False)
        assert res.exit_code == 0
        audits.append((out / "audit.json").read_bytes())
    ok = same_runs and audits[0] == audits[1]
    _report(11, ok, "byte-identical artifacts across reruns and across "
                    "thread counts {1, 4} at a fixed seed")
