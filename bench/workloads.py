"""Benchmark workloads: seeded inputs, jobs, and one pass over a workload.

A job makes the public library calls that one `moranset` CLI subcommand
makes and writes the same artifact files (all but `manifest.json`, whose
package-version lookup needs an installed package) into its own directory.
Every call is wrapped in a span of the module it enters, so a traced pass
can charge time to layers; nested library calls stay charged to the
outermost module the benchmark called (see DESIGN.md).

The seed only picks inputs: the gap seed of `skew10`, the five gap weights
of `weighted6`, and the sampled-audit and sandwich seeds.  Depths, levels,
window counts and every other size are fixed, so a seed never changes how
much work a job does.  Seed 42 reproduces the `skew10` preset.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import statistics
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

from moranset import (branchtree, dimension, measure, qsmap, reconstruct,
                      specs, tree)
import calibrate
from spans import self_times

DEFAULT_SEED = 42

#: Exact per-job counts, compared pass to pass.  Totals over a pass are sums,
#: except `tree.den_bits_max`, which is a maximum.
COUNT_KEYS = (
    "tree.intervals", "tree.den_bits_max", "reconstruct.intervals",
    "dimension.parents_enumerated", "dimension.box_intervals",
    "branchtree.branches", "measure.windows", "qsmap.endpoints",
    "qsmap.endpoint_lookups", "qsmap.image_branches",
    "qsmap.inexact_branches", "cli.bytes",
)


@dataclass(frozen=True)
class Inputs:
    """Everything a seed decides."""
    skew_seed: int
    weights: tuple[int, ...]
    audit_seed: int
    sandwich_seed: int


def make_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)
    weights = tuple(rng.randint(1, 4) for _ in range(5))
    return Inputs(skew_seed=seed, weights=weights,
                  audit_seed=rng.randrange(2**31),
                  sandwich_seed=rng.randrange(2**31))


def weighted6_config(weights: tuple[int, ...]) -> dict:
    """n = 6, c periodic 1/12, 1/10, no boundary gaps, weighted interior gaps."""
    return {
        "n": {"kind": "constant", "values": [6]},
        "c": {"kind": "periodic", "values": ["1/12", "1/10"]},
        "L": {"kind": "constant", "values": ["0"]},
        "R": {"kind": "constant", "values": ["0"]},
        "gaps": {"kind": "weighted", "weights": [str(w) for w in weights]},
    }


def make_spec(key: str, inputs: Inputs) -> specs.MoranSpec:
    if key == "skew10":
        return specs.preset("skew10", seed=inputs.skew_seed)
    if key == "weighted6":
        return specs.spec_from_config(weighted6_config(inputs.weights),
                                      name="weighted6")
    return specs.preset(key)


# ---------------------------------------------------------------------------
# Counts taken from a job's outputs, outside the timed region
# ---------------------------------------------------------------------------

def den_bits(nodes) -> int:
    return max(max(n.lo.denominator.bit_length(), n.hi.denominator.bit_length())
               for n in nodes)


def parents_enumerated(spec: specs.MoranSpec, K: int) -> int:
    """Interior-gap draws `check_conditions` makes: one per level for a
    node-independent policy, one per level-(k-1) parent otherwise."""
    if spec.gaps.node_independent:
        return K
    return sum(spec.count(k - 1) for k in range(1, K + 1))


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

def _fmt(x: Fraction) -> str:
    return specs.format_rational(x)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fp:
        w = csv.writer(fp)
        w.writerow(header)
        w.writerows(rows)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n")


def job_build(spec, out: Path, rec, *, depth: int):
    """`moranset build --depth D`."""
    with rec.span("tree", "build_level"):
        level = tree.build_level(spec, depth)
    with rec.span("cli", "export_level"):
        with (out / "intervals.jsonl").open("w") as fp:
            tree.export_level(level, fp)
    with rec.span("tree", "level_stats"):
        stats = [tree.level_stats(spec, k) for k in range(1, depth + 1)]
    with rec.span("cli", "levels.csv"):
        _write_csv(out / "levels.csv",
                   ["k", "N_k", "delta_k", "alpha_bar", "alpha_under", "e_k",
                    "l_Ek"],
                   [(st.k, st.count, _fmt(st.length), _fmt(st.max_gap),
                     _fmt(st.min_gap), _fmt(st.slack), _fmt(st.total_length))
                    for st in stats])
    return lambda: {"tree.intervals": len(level),
                    "tree.den_bits_max": den_bits(level.nodes)}


def job_box(spec, out: Path, rec, *, depth: int, widths: range):
    """Trimmed level `depth` streamed into `box_count` at widths 3^-j
    (no CLI subcommand; writes `box.json`)."""
    with rec.span("reconstruct", "first_reconstruct"):
        star = reconstruct.first_reconstruct(spec, depth)
    eps = [Fraction(1, 3**j) for j in widths]
    with rec.span("dimension", "box_count"):
        res = dimension.box_count(
            rec.stream("tree", "StarState.iter_level", star.iter_level(depth)),
            eps)
    with rec.span("cli", "box.json"):
        _write_json(out / "box.json",
                    {"depth": depth, "epsilons": [_fmt(e) for e in res.epsilons],
                     "counts": res.counts, "slope": res.slope})

    def counts():
        nodes = list(star.iter_level(depth))
        return {"tree.intervals": len(nodes), "tree.den_bits_max": den_bits(nodes),
                "dimension.box_intervals": len(nodes)}
    return counts


def job_reconstruct(spec, out: Path, rec, *, depth: int):
    """`moranset reconstruct --depth D`, plus the trimmed level D
    materialized and exported to `star_intervals.jsonl`."""
    with rec.span("reconstruct", "first_reconstruct"):
        star = reconstruct.first_reconstruct(spec, depth)
    with rec.span("reconstruct", "stats"):
        stats = [star.stats(k) for k in range(1, depth + 1)]
    with rec.span("cli", "star.csv"):
        _write_csv(out / "star.csv",
                   ["k", "delta_star", "alpha_bar_star", "alpha_under_star",
                    "e_star", "L_star", "R_star"],
                   [(st.k, _fmt(st.length), _fmt(st.max_gap), _fmt(st.min_gap),
                     _fmt(st.slack), _fmt(st.L), _fmt(st.R)) for st in stats])
    with rec.span("reconstruct", "StarState.level"):
        level = star.level(depth)
    with rec.span("cli", "export_level"):
        with (out / "star_intervals.jsonl").open("w") as fp:
            tree.export_level(level, fp)
    return lambda: {"reconstruct.intervals": len(level),
                    "tree.den_bits_max": den_bits(level.nodes)}


def job_measure_audit(spec, out: Path, rec, *, t: float, k_hi: int,
                      mode: str = "exhaustive", samples: int = 2000,
                      seed: int = 0, threads: int = 1):
    """`moranset measure-audit --t T --k-hi K [--mode sampled ...]`, with
    the certificate computed by a separate `check_conditions` call."""
    with rec.span("reconstruct", "first_reconstruct"):
        star = reconstruct.first_reconstruct(spec, k_hi + 2)
    with rec.span("dimension", "check_conditions"):
        cert = dimension.check_conditions(spec, k_hi + 1)
    with rec.span("measure", "frostman_audit"):
        audit = measure.frostman_audit(
            measure.MassMeasure(star), "A", t, (1, k_hi), mode=mode, cert=cert,
            samples=samples, seed=seed, threads=threads)
    with rec.span("cli", "audit.json"):
        _write_json(out / "audit.json", audit.to_dict())
    if not audit.passed:
        raise AssertionError(f"audit FAIL: worst ratio {audit.worst_ratio}")
    return lambda: {"measure.windows": audit.windows,
                    "dimension.parents_enumerated": parents_enumerated(spec, k_hi + 1)}


def job_conditions(spec, out: Path, rec, *, depth: int):
    """`moranset conditions --depth D`."""
    with rec.span("dimension", "check_conditions"):
        cert = dimension.check_conditions(spec, depth)
    with rec.span("cli", "conditions.json"):
        _write_json(out / "conditions.json", cert.to_dict())
    return lambda: {"dimension.parents_enumerated": parents_enumerated(spec, depth)}


def job_qs(spec, out: Path, rec, *, depth: int, map_text: str, seed: int,
           d: float = 0.5, samples: int = 2000):
    """`moranset qs --depth D --map MAP --seed S`, with the certificate
    behind `choose_M` computed by a separate `check_conditions` call."""
    with rec.span("qsmap", "parse_map"):
        fmap = qsmap.parse_map(map_text)
    with rec.span("dimension", "check_conditions"):
        cert = dimension.check_conditions(spec, depth)
    with rec.span("branchtree", "choose_M"):
        schedule = branchtree.choose_M(spec, "A", depth, cert=cert)
    with rec.span("branchtree", "build_T"):
        built = branchtree.build_T(spec, schedule, schedule.m_max, mode="explicit")
    with rec.span("qsmap", "stats_series"):
        stats = qsmap.stats_series(built)
    with rec.span("cli", "stats.csv"):
        _write_csv(out / "stats.csv",
                   ["m", "beta", "theta", "chi", "kappa", "lambda_star",
                    "lambda_under", "gamma_star", "gamma_under", "l_Tm"],
                   stats.rows())
    with rec.span("qsmap", "image_tree"):
        image = qsmap.image_tree(fmap, built, qsmap.DEFAULT_PRECISION_BITS)
    with rec.span("qsmap", "build_mu_d"):
        mu = qsmap.build_mu_d(image, d)
    with rec.span("qsmap", "prop1_ratio_series"):
        ratios = qsmap.prop1_ratio_series(mu)
    with rec.span("cli", "ratio.csv"):
        _write_csv(out / "ratio.csv", ["k", "max_ratio"],
                   list(zip(ratios.levels, ratios.ratios)))
    with rec.span("qsmap", "sandwich_audit"):
        hull = image.hull()
        sandwich = qsmap.sandwich_audit(fmap, (float(hull[0]), float(hull[1])),
                                        samples, seed)
    with rec.span("cli", "qs.json"):
        _write_json(out / "qs.json", {
            "map": fmap.describe(),
            "d": d,
            "ratio_growth_rate": ratios.growth_rate,
            "max_ratio": ratios.max_ratio(),
            "sandwich": {"p": sandwich.p, "q": sandwich.q, "lam": sandwich.lam},
        })

    def counts():
        # image_tree encloses both endpoints of the root and of every branch
        root = (spec.interval[0] + spec.L(1), spec.interval[1] - spec.R(1))
        levels = built.explicit[1:]
        points = {x for level in levels for br in level for x in (br.lo, br.hi)}
        points.update(root)
        branches = [br for level in image.levels for br in level]
        return {"dimension.parents_enumerated": parents_enumerated(spec, depth),
                "branchtree.branches": sum(len(lv) for lv in levels),
                "qsmap.endpoints": len(points),
                "qsmap.endpoint_lookups": 2 * len(branches),
                "qsmap.image_branches": len(branches),
                "qsmap.inexact_branches": sum(not br.exact for br in branches)}
    return counts


@dataclass
class Job:
    name: str
    spec_key: str
    run: Callable
    depth: int                  # validation depth of the spec
    spec: specs.MoranSpec | None = field(default=None, repr=False)
    setup_error: str | None = None


WORKLOADS = ("levels", "audit", "image")


def workload_jobs(workload: str, inputs: Inputs) -> list[Job]:
    """The job list of a workload; only the inputs depend on the seed."""
    if workload == "levels":
        return [
            Job("build-wide10-d5", "wide10", partial(job_build, depth=5), 5),
            Job("box-cantor3-d14", "cantor3",
                partial(job_box, depth=14, widths=range(2, 12)), 15),
            Job("build-weighted6-d6", "weighted6", partial(job_build, depth=6), 6),
            Job("reconstruct-padded2-d14", "padded2",
                partial(job_reconstruct, depth=14), 15),
        ]
    if workload == "audit":
        return [
            Job("audit-cantor3-t0.6-k7", "cantor3",
                partial(job_measure_audit, t=0.6, k_hi=7), 9),
            Job("audit-padded2-t0.4-k6", "padded2",
                partial(job_measure_audit, t=0.4, k_hi=6), 8),
            Job("audit-cantor3-t0.6-k7-sampled", "cantor3",
                partial(job_measure_audit, t=0.6, k_hi=7, mode="sampled",
                        samples=800, seed=inputs.audit_seed, threads=2), 9),
        ]
    if workload == "image":
        qs = partial(job_qs, seed=inputs.sandwich_seed)
        return [
            Job("conditions-skew10-d5", "skew10",
                partial(job_conditions, depth=5), 5),
            Job("qs-skew10-d4-power1_2", "skew10",
                partial(qs, depth=4, map_text="power:1/2"), 4),
            Job("qs-cantor3-d10-power2-affine", "cantor3",
                partial(qs, depth=10, map_text="power:2+affine:3,-1"), 10),
            Job("qs-weighted6-d4-power1_2", "weighted6",
                partial(qs, depth=4, map_text="power:1/2"), 4),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def setup_jobs(workload: str, seed: int, rec) -> list[Job]:
    """Build and validate each job's spec, as the CLI does per run.  A
    failure here fails that job only."""
    inputs = make_inputs(seed)
    jobs = workload_jobs(workload, inputs)
    for job in jobs:
        rec.job = job.name
        try:
            with rec.span("specs", "make_spec"):
                spec = make_spec(job.spec_key, inputs)
            with rec.span("specs", "validate_spec"):
                report = specs.validate_spec(spec, job.depth)
            if not report.ok:
                raise ValueError(f"invalid spec: {report.to_dict()}")
            job.spec = spec
        except Exception:
            job.setup_error = traceback.format_exc()
    return jobs


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------

def artifact_digest(out: Path) -> tuple[str, int]:
    """sha256 over a job's artifact files (names and bytes), and their size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
        size += len(data)
    return h.hexdigest(), size


def run_pass(jobs: list[Job], out_root: Path, rec) -> dict:
    """Run the jobs in sequence, each into its own directory.

    Only a job's library calls and artifact writes are timed; its counts
    and digest are taken after its clock stops.  The calibration kernel
    runs before the first job and after each one; a job's `wall_ref_s` is
    its wall time rescaled by the mean of the kernel times around it.  A
    job that raises is recorded with its traceback and the pass goes on.
    """
    results = {}
    calibrate.kernel_seconds()              # warm-up, not used
    kernel = calibrate.kernel_seconds()
    for job in jobs:
        rec.job = job.name
        out = out_root / job.name
        out.mkdir(parents=True)
        res = {"wall_s": 0.0, "cpu_s": 0.0, "wall_ref_s": 0.0,
               "error": job.setup_error}
        if job.setup_error is None:
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                counts = job.run(job.spec, out, rec)
            except Exception:
                res["error"] = traceback.format_exc()
            res["wall_s"] = time.perf_counter() - t0
            res["cpu_s"] = time.process_time() - c0
            before, kernel = kernel, calibrate.kernel_seconds()
            res["kernel_s"] = (before + kernel) / 2
            res["wall_ref_s"] = res["wall_s"] * calibrate.REFERENCE_S / res["kernel_s"]
        if res["error"] is None:
            try:
                res["counts"] = counts()
                res["digest"], res["counts"]["cli.bytes"] = artifact_digest(out)
            except Exception:
                res["error"] = traceback.format_exc()
        results[job.name] = res
    kernels = [r["kernel_s"] for r in results.values() if "kernel_s" in r]
    return {**{key: sum(r[key] for r in results.values())
               for key in ("wall_s", "cpu_s", "wall_ref_s")},
            "kernel_s": statistics.median(kernels) if kernels else kernel,
            "jobs": results}


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced pass
# ---------------------------------------------------------------------------

LAYERS = ("specs", "tree", "reconstruct", "dimension", "branchtree",
          "measure", "qsmap", "cli")

#: Every per-layer metric and its unit; `trace.overhead_s` compares a
#: traced pass with an untraced one and is added by the runner.
LAYER_UNITS = {
    **{f"{layer}.busy_s": "s" for layer in LAYERS},
    "tree.intervals": "count", "tree.us_per_interval": "us",
    "tree.den_bits_max": "bits",
    "reconstruct.intervals": "count",
    "dimension.box_us_per_interval": "us",
    "dimension.parents_enumerated": "count",
    "branchtree.branches": "count", "branchtree.us_per_branch": "us",
    "measure.windows": "count", "measure.us_per_window": "us",
    "measure.cpu_per_wall": "ratio",
    "qsmap.image_busy_s": "s", "qsmap.mu_d_busy_s": "s",
    "qsmap.endpoints": "count", "qsmap.endpoint_reuse_ratio": "ratio",
    "qsmap.inexact_branch_ratio": "ratio", "qsmap.us_per_endpoint": "us",
    "cli.bytes": "count", "cli.mb_per_s": "MB/s",
    "trace.overhead_s": "s",
}


def pass_totals(job_results: dict) -> dict:
    totals = dict.fromkeys(COUNT_KEYS, 0)
    for res in job_results.values():
        for key, value in res.get("counts", {}).items():
            if key == "tree.den_bits_max":
                totals[key] = max(totals[key], value)
            else:
                totals[key] += value
    return totals


def layer_metrics(spans: list[dict], totals: dict, jobs: list[Job]) -> dict:
    """Per-layer self times, counts and rates of one traced pass."""
    busy = dict.fromkeys(LAYERS, 0.0)
    by_call: dict[str, float] = {}
    threaded = {job.name for job in jobs if job.run.keywords.get("threads", 1) > 1}
    cpu = wall = 0.0
    for span, own in zip(spans, self_times(spans)):
        busy[span["layer"]] += own
        key = f"{span['layer']}.{span['name']}"
        by_call[key] = by_call.get(key, 0.0) + own
        if span["layer"] == "measure" and span["job"] in threaded:
            cpu += span["cpu"]
            wall += span["busy"]

    def ratio(x, n, scale=1.0):
        return x * scale / n if n else 0.0

    image_s = by_call.get("qsmap.image_tree", 0.0)
    out = {f"{layer}.busy_s": busy[layer] for layer in LAYERS}
    out.update({
        "tree.intervals": totals["tree.intervals"],
        "tree.us_per_interval": ratio(busy["tree"], totals["tree.intervals"], 1e6),
        "tree.den_bits_max": totals["tree.den_bits_max"],
        "reconstruct.intervals": totals["reconstruct.intervals"],
        "dimension.box_us_per_interval": ratio(
            by_call.get("dimension.box_count", 0.0),
            totals["dimension.box_intervals"], 1e6),
        "dimension.parents_enumerated": totals["dimension.parents_enumerated"],
        "branchtree.branches": totals["branchtree.branches"],
        "branchtree.us_per_branch": ratio(busy["branchtree"],
                                          totals["branchtree.branches"], 1e6),
        "measure.windows": totals["measure.windows"],
        "measure.us_per_window": ratio(busy["measure"],
                                       totals["measure.windows"], 1e6),
        "measure.cpu_per_wall": ratio(cpu, wall),
        "qsmap.image_busy_s": image_s,
        "qsmap.mu_d_busy_s": by_call.get("qsmap.build_mu_d", 0.0),
        "qsmap.endpoints": totals["qsmap.endpoints"],
        "qsmap.endpoint_reuse_ratio": ratio(totals["qsmap.endpoints"],
                                            totals["qsmap.endpoint_lookups"]),
        "qsmap.inexact_branch_ratio": ratio(totals["qsmap.inexact_branches"],
                                            totals["qsmap.image_branches"]),
        "qsmap.us_per_endpoint": ratio(image_s, totals["qsmap.endpoints"], 1e6),
        "cli.bytes": totals["cli.bytes"],
        "cli.mb_per_s": ratio(totals["cli.bytes"], busy["cli"], 1e-6),
    })
    return out
