"""Command-line front end: reproducible runs that tie the library together.

Every subcommand writes its artifacts under a run directory with fixed file
names, next to a manifest recording the configuration hash, package and
interpreter versions, seeds, and precision settings.  Exact-arithmetic
artifacts are byte-identical across reruns with the same configuration.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import platform
import sys
from fractions import Fraction
from pathlib import Path

import click

from . import (__version__, branchtree, dimension, measure, qsmap, reconstruct,
               specs, tree)
from .errors import (BudgetExceededError, ConditionInapplicableError,
                     ConfigError, DegenerateSpecError, DomainError,
                     InconsistentSpecError, InvalidSpecError, MoranError,
                     PrecisionError, RegimeError, RuleEvalError)

EXIT_CODES = {
    ConfigError: 3,
    RuleEvalError: 4,
    InvalidSpecError: 5,
    InconsistentSpecError: 6,
    BudgetExceededError: 7,
    DegenerateSpecError: 8,
    ConditionInapplicableError: 9,
    DomainError: 10,
    RegimeError: 11,
    PrecisionError: 12,
    MoranError: 20,
}


def _exit_code(exc: MoranError) -> int:
    for cls in type(exc).__mro__:
        if cls in EXIT_CODES:
            return EXIT_CODES[cls]
    return EXIT_CODES[MoranError]


def handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except MoranError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(_exit_code(exc))
    return wrapper


def spec_options(fn):
    fn = click.option("--preset", type=str, default=None,
                      help="Built-in construction name.")(fn)
    fn = click.option("--config", "config_path",
                      type=click.Path(exists=True, dir_okay=False),
                      default=None, help="JSON construction description.")(fn)
    return fn


def out_option(fn):
    return click.option("--out", "out_dir", type=click.Path(file_okay=False),
                        default="moranset-out", show_default=True,
                        help="Run directory for artifacts.")(fn)


def _load_spec(preset: str | None, config_path: str | None):
    """Returns (spec, source descriptor used for the manifest hash)."""
    if (preset is None) == (config_path is None):
        raise ConfigError("give exactly one of --preset or --config")
    if preset is not None:
        return specs.preset(preset), {"preset": preset}
    raw = Path(config_path).read_text()
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {config_path} is not valid JSON: {exc}")
    return specs.spec_from_config(cfg, name=Path(config_path).stem), {"config": cfg}


def _run_dir(out_dir: str) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out_dir: Path, command: str, source: dict, params: dict):
    """Called last, so that a run directory holding a manifest is finished."""
    payload = {"command": command, "source": source, "params": params}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    manifest = {
        **payload,
        "config_sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "package_version": __version__,
        "python_version": platform.python_version(),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows):
    with path.open("w", newline="") as fp:
        w = csv.writer(fp)
        w.writerow(header)
        w.writerows(rows)


def _fmt(x: Fraction) -> str:
    return specs.format_rational(x)


@click.group()
def main():
    """Build and audit homogeneous Moran constructions."""


@main.command()
@spec_options
@click.option("--depth", type=int, default=10, show_default=True)
@handle_errors
def validate(preset, config_path, depth):
    """Check the structural constraints level by level."""
    spec, _ = _load_spec(preset, config_path)
    report = specs.validate_spec(spec, depth)
    click.echo(json.dumps(report.to_dict(), indent=2))
    if not report.ok:
        sys.exit(EXIT_CODES[InvalidSpecError])


@main.command()
@spec_options
@out_option
@click.option("--depth", type=int, default=6, show_default=True)
@click.option("--budget", type=int, default=tree.DEFAULT_NODE_BUDGET,
              show_default=True, help="Cap on materialized intervals.")
@handle_errors
def build(preset, config_path, out_dir, depth, budget):
    """Materialize a level and export it with level statistics."""
    spec, source = _load_spec(preset, config_path)
    out = _run_dir(out_dir)
    level = tree.build_level(spec, depth, budget=budget)
    with (out / "intervals.jsonl").open("w") as fp:
        tree.export_level(level, fp)
    rows = []
    for k in range(1, depth + 1):
        st = tree.level_stats(spec, k, budget=budget)
        rows.append((k, st.count, _fmt(st.length), _fmt(st.max_gap),
                     _fmt(st.min_gap), _fmt(st.slack), _fmt(st.total_length)))
    _write_csv(out / "levels.csv",
               ["k", "N_k", "delta_k", "alpha_bar", "alpha_under", "e_k", "l_Ek"],
               rows)
    _write_manifest(out, "build", source, {"depth": depth, "budget": budget})
    click.echo(f"wrote {len(level)} intervals and {depth} stat rows to {out}")


@main.command()
@spec_options
@out_option
@click.option("--depth", type=int, default=20, show_default=True)
@click.option("--t", "t_probe", type=float, default=None,
              help="Also write the canonical cover t-sums at this exponent.")
@handle_errors
def dim(preset, config_path, out_dir, depth, t_probe):
    """Dimension-formula series (and optional cover sums)."""
    spec, source = _load_spec(preset, config_path)
    out = _run_dir(out_dir)
    series = dimension.dim_formula_seq(spec, depth)
    _write_csv(out / "dim.csv", ["k", "s_k"],
               [(k, series.value(k)) for k in range(1, depth + 1)])
    click.echo(f"s_{depth} = {series.value(depth):.10f}; "
               f"trailing-window minimum = {series.tail_min:.10f}")
    if t_probe is not None:
        star = reconstruct.first_reconstruct(spec, depth)
        sums = dimension.cover_sum(star, t_probe, depth)
        _write_csv(out / "cover.csv", ["k", "cover_sum"],
                   [(k, v) for k, v in enumerate(sums, start=1)])
    _write_manifest(out, "dim", source, {"depth": depth, "t": t_probe})


@main.command()
@spec_options
@out_option
@click.option("--depth", type=int, default=10, show_default=True)
@handle_errors
def conditions(preset, config_path, out_dir, depth):
    """Exact certificates for the three dimension conditions."""
    spec, source = _load_spec(preset, config_path)
    out = _run_dir(out_dir)
    cert = dimension.check_conditions(spec, depth)
    (out / "conditions.json").write_text(json.dumps(cert.to_dict(), indent=2) + "\n")
    _write_manifest(out, "conditions", source, {"depth": depth})
    click.echo(json.dumps(cert.to_dict(), indent=2))


@main.command("reconstruct")
@spec_options
@out_option
@click.option("--depth", type=int, default=10, show_default=True)
@handle_errors
def reconstruct_cmd(preset, config_path, out_dir, depth):
    """Trimmed-hierarchy statistics (the first reconstruction)."""
    spec, source = _load_spec(preset, config_path)
    out = _run_dir(out_dir)
    star = reconstruct.first_reconstruct(spec, depth)
    rows = []
    for k in range(1, depth + 1):
        st = star.stats(k)
        rows.append((k, _fmt(st.length), _fmt(st.max_gap), _fmt(st.min_gap),
                     _fmt(st.slack), _fmt(st.L), _fmt(st.R)))
    _write_csv(out / "star.csv",
               ["k", "delta_star", "alpha_bar_star", "alpha_under_star",
                "e_star", "L_star", "R_star"], rows)
    _write_manifest(out, "reconstruct", source, {"depth": depth})
    click.echo(f"wrote trimmed stats for levels 1..{depth} to {out}")


@main.command()
@spec_options
@out_option
@click.option("--depth", type=int, default=8, show_default=True,
              help="Construction depth covered by the schedule.")
@click.option("--m-max", type=int, default=None,
              help="Top refinement level (default: the full schedule).")
@click.option("--condition", type=click.Choice(["A", "B"]), default="A",
              show_default=True)
@click.option("--mode", type=click.Choice(["auto", "template", "explicit"]),
              default="auto", show_default=True)
@click.option("--budget", type=int, default=tree.DEFAULT_NODE_BUDGET,
              show_default=True)
@handle_errors
def branches(preset, config_path, out_dir, depth, m_max, condition, mode, budget):
    """The interpolated branch hierarchy (second reconstruction)."""
    spec, source = _load_spec(preset, config_path)
    out = _run_dir(out_dir)
    schedule = branchtree.choose_M(spec, condition, depth)
    if m_max is None:
        m_max = schedule.m_max
    _write_csv(out / "schedule.csv", ["k", "i_k", "m_k", "M"],
               [(k, schedule.i[k - 1], schedule.m[k], schedule.M)
                for k in range(1, depth + 1)])
    built = branchtree.build_T(spec, schedule, m_max, mode=mode, budget=budget)
    rows = []
    for m in range(m_max + 1):
        st = built.branch_stats(m)
        rows.append((m, st.count, _fmt(st.max_len), _fmt(st.min_len),
                     _fmt(st.total_len), st.psi_max, st.psi_min))
    _write_csv(out / "branch_stats.csv",
               ["m", "count", "max_len", "min_len", "l_Tm", "psi_max", "psi_min"],
               rows)
    if built.mode == "explicit":
        with (out / "branches.jsonl").open("w") as fp:
            for m in range(1, m_max + 1):
                for i, br in enumerate(built.explicit[m]):
                    fp.write(json.dumps({
                        "m": m, "index": i, "lo": _fmt(br.lo),
                        "hi": _fmt(br.hi), "psi": br.span}) + "\n")
    _write_manifest(out, "branches", source,
                    {"depth": depth, "m_max": m_max, "condition": condition,
                     "mode": mode, "budget": budget})
    click.echo(f"M = {schedule.M}; built {built.mode} hierarchy to level "
               f"{m_max}; artifacts in {out}")


@main.command("measure-audit")
@spec_options
@out_option
@click.option("--condition", type=click.Choice(["A", "B", "C"]), default="A",
              show_default=True)
@click.option("--t", "t_exp", type=float, required=True,
              help="Frostman exponent to audit.")
@click.option("--k-lo", type=int, default=1, show_default=True)
@click.option("--k-hi", type=int, default=4, show_default=True)
@click.option("--mode", type=click.Choice(["exhaustive", "sampled"]),
              default="exhaustive", show_default=True)
@click.option("--samples", type=int, default=2000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--threads", type=int, default=1, show_default=True)
@handle_errors
def measure_audit(preset, config_path, out_dir, condition, t_exp, k_lo, k_hi,
                  mode, samples, seed, threads):
    """Audit the mass-versus-window-size bound for the uniform measure."""
    spec, source = _load_spec(preset, config_path)
    out = _run_dir(out_dir)
    star = reconstruct.first_reconstruct(spec, k_hi + 2)
    mm = measure.MassMeasure(star)
    audit = measure.frostman_audit(mm, condition, t_exp, (k_lo, k_hi),
                                   mode=mode, samples=samples, seed=seed,
                                   threads=threads)
    (out / "audit.json").write_text(json.dumps(audit.to_dict(), indent=2) + "\n")
    _write_manifest(out, "measure-audit", source,
                    {"condition": condition, "t": t_exp, "k_lo": k_lo,
                     "k_hi": k_hi, "mode": mode, "samples": samples,
                     "seed": seed, "threads": threads})
    status = "PASS" if audit.passed else "FAIL"
    click.echo(f"{status}: worst ratio {audit.worst_ratio:.6f} vs constant "
               f"{float(audit.constant):.6f} over {audit.windows} windows")
    if not audit.passed:
        sys.exit(1)


@main.command()
@spec_options
@out_option
@click.option("--map", "map_text", type=str, default="identity",
              show_default=True, help="Map family, e.g. power:2 or affine:3,-1.")
@click.option("--d", "d_exp", type=float, default=0.5, show_default=True)
@click.option("--depth", type=int, default=6, show_default=True)
@click.option("--m-max", type=int, default=None)
@click.option("--condition", type=click.Choice(["A", "B"]), default="A",
              show_default=True)
@click.option("--precision-bits", type=int, default=qsmap.DEFAULT_PRECISION_BITS,
              show_default=True)
@click.option("--samples", type=int, default=2000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@handle_errors
def qs(preset, config_path, out_dir, map_text, d_exp, depth, m_max, condition,
       precision_bits, samples, seed):
    """Map the branch hierarchy and audit the image-side quantities."""
    spec, source = _load_spec(preset, config_path)
    out = _run_dir(out_dir)
    fmap = qsmap.parse_map(map_text)
    schedule = branchtree.choose_M(spec, condition, depth)
    top = schedule.m_max if m_max is None else m_max
    built = branchtree.build_T(spec, schedule, top, mode="explicit")
    stats = qsmap.stats_series(built)
    _write_csv(out / "stats.csv",
               ["m", "beta", "theta", "chi", "kappa", "lambda_star",
                "lambda_under", "gamma_star", "gamma_under", "l_Tm"],
               stats.rows())
    image = qsmap.image_tree(fmap, built, precision_bits)
    mu = qsmap.build_mu_d(image, d_exp)
    ratios = qsmap.prop1_ratio_series(mu)
    _write_csv(out / "ratio.csv", ["k", "max_ratio"],
               list(zip(ratios.levels, ratios.ratios)))
    hull = image.hull()
    domain = (float(hull[0]), float(hull[1]))
    sandwich = qsmap.sandwich_audit(fmap, domain, samples, seed)
    summary = {
        "map": fmap.describe(),
        "d": d_exp,
        "ratio_growth_rate": ratios.growth_rate,
        "max_ratio": ratios.max_ratio(),
        "sandwich": {"p": sandwich.p, "q": sandwich.q, "lam": sandwich.lam},
    }
    (out / "qs.json").write_text(json.dumps(summary, indent=2) + "\n")
    _write_manifest(out, "qs", source,
                    {"map": map_text, "d": d_exp, "depth": depth,
                     "m_max": m_max, "condition": condition,
                     "precision_bits": precision_bits, "samples": samples,
                     "seed": seed})
    click.echo(json.dumps(summary, indent=2))


@main.command()
@spec_options
@out_option
@click.option("--depth", type=int, default=8, show_default=True)
@click.option("--qs", "map_text", type=str, default="identity", show_default=True)
@click.option("--d", "d_exp", type=float, default=0.5, show_default=True)
@click.option("--condition", type=click.Choice(["A", "B"]), default="A",
              show_default=True)
@handle_errors
def report(preset, config_path, out_dir, depth, map_text, d_exp, condition):
    """One JSON bundling the dimension series, certificates, and audits."""
    spec, source = _load_spec(preset, config_path)
    out = _run_dir(out_dir)
    series = dimension.dim_formula_seq(spec, depth)
    cert = dimension.check_conditions(spec, depth)
    schedule = branchtree.choose_M(spec, condition, depth, cert=cert)
    built = branchtree.build_T(spec, schedule, schedule.m_max)
    star = built.star
    lemma7 = []
    for k in range(1, depth + 1):
        st = built.branch_stats(schedule.m[k])
        lemma7.append({
            "k": k,
            "l_Tmk": _fmt(st.total_len),
            "expected": _fmt(Fraction(spec.count(k)) * star.delta_star(k)),
        })
    stats = qsmap.stats_series(built, m_top=schedule.m_max - 1)
    lemma8_ok = all(
        th >= 1 - (schedule.M ** 2 + 1) * b
        for b, th in zip(stats.beta, stats.theta)
        if 1 - (schedule.M ** 2 + 1) * b > 0)
    fmap = qsmap.parse_map(map_text)
    if isinstance(fmap, qsmap.IdentityMap) and spec.gaps.kind == "uniform":
        ratios = qsmap.prop1_ratio_series_uniform(star, d_exp, depth)
    else:
        if built.mode != "explicit":
            built = branchtree.build_T(spec, schedule, schedule.m_max,
                                       mode="explicit")
        image = qsmap.image_tree(fmap, built)
        ratios = qsmap.prop1_ratio_series(qsmap.build_mu_d(image, d_exp))
    bundle = {
        "spec": spec.name,
        "dim_series": {"s": series.s, "tail_min": series.tail_min},
        "conditions": cert.to_dict(),
        "schedule": {"M": schedule.M, "i": schedule.i, "m": schedule.m},
        "branch_length_identity": lemma7,
        "refinement_length_bound_ok": lemma8_ok,
        "ratio_series": {"levels": ratios.levels, "ratios": ratios.ratios,
                         "growth_rate": ratios.growth_rate},
    }
    (out / "report.json").write_text(json.dumps(bundle, indent=2) + "\n")
    _write_manifest(out, "report", source,
                    {"depth": depth, "qs": map_text, "d": d_exp,
                     "condition": condition})
    click.echo(f"report written to {out / 'report.json'}")


if __name__ == "__main__":
    main()
