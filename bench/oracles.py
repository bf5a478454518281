"""Cross-checks of the fast paths against `moranset.oracle`, run once per
benchmark run outside the timed passes.  Each check reports ok or a short
reason; a check that raises is a failed check, never a crashed run."""

from __future__ import annotations

import math
import traceback
from fractions import Fraction

from moranset import dimension, measure, oracle, reconstruct, specs, tree

import workloads


def _level_matches(spec, k: int) -> str | None:
    fast = [(n.lo, n.hi) for n in tree.build_level(spec, k)]
    slow = oracle.oracle_level(spec, k)
    if fast != slow:
        return f"build_level({spec.name}, {k}) differs from oracle_level"
    return None


def _box_count_matches() -> str | None:
    spec = specs.preset("cantor3")
    k = 8
    eps = [Fraction(1, 3**j) for j in range(2, 9)]
    fast = dimension.box_count(reconstruct.first_reconstruct(spec, k).iter_level(k),
                               eps).counts
    stars = oracle.oracle_level(spec, k, trimmed=True)
    slow = [oracle.naive_box_count(stars, e).value for e in eps]
    if fast != slow:
        return f"box_count {fast} != naive_box_count {slow}"
    return None


def _audit_matches() -> str | None:
    spec = specs.preset("cantor3")
    t, k_hi = 0.6, 5
    audit = measure.frostman_audit(
        measure.MassMeasure(reconstruct.first_reconstruct(spec, k_hi + 2)),
        "A", t, (1, k_hi))
    slow = max(oracle.exhaustive_mu_sweep(spec, k, t).value[0]
               for k in range(audit.k0, k_hi + 1))
    if audit.worst_ratio != slow:
        return f"frostman_audit worst {audit.worst_ratio} != sweep {slow}"
    return None


def _dim_series_matches() -> str | None:
    K = 40
    fast = dimension.dim_formula_seq(specs.preset("dim1_binary"), K).s
    slow = oracle.dim1_binary_s(K)
    bad = [k for k, (a, b) in enumerate(zip(fast, slow), start=1)
           if not math.isclose(a, b, rel_tol=1e-12)]
    if bad:
        return f"dim_formula_seq differs from dim1_binary_s at k = {bad}"
    return None


def run_checks(seed: int) -> list[dict]:
    inputs = workloads.make_inputs(seed)
    checks = {
        "oracle_level-wide10-k4": lambda: _level_matches(specs.preset("wide10"), 4),
        "oracle_level-weighted6-k5": lambda: _level_matches(
            workloads.make_spec("weighted6", inputs), 5),
        "naive_box_count-cantor3-k8": _box_count_matches,
        "exhaustive_mu_sweep-cantor3-k5": _audit_matches,
        "dim1_binary_s-k40": _dim_series_matches,
    }
    out = []
    for name, check in checks.items():
        try:
            problem = check()
        except Exception:
            problem = traceback.format_exc()
        out.append({"name": name, "ok": problem is None, "detail": problem})
    return out
