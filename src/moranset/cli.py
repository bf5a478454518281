"""Command-line front end: reproducible runs that tie the library together.

Every subcommand is registered by `command`, which loads the spec, runs the
body, maps library errors to exit codes and only then writes the artifacts
the body returned under a run directory with fixed file names, next to a
manifest recording the configuration hash, package and interpreter versions,
seeds, and precision settings.  Exact-arithmetic artifacts are byte-identical
across reruns with the same configuration.
"""

from __future__ import annotations

import csv
import hashlib
import json
import platform
import sys
from fractions import Fraction
from pathlib import Path
from typing import IO, Callable

import click

from . import (__version__, branchtree, dimension, measure, qsmap, reconstruct,
               specs, tree)
from .errors import (BudgetExceededError, ConditionInapplicableError,
                     ConfigError, DegenerateSpecError, DomainError,
                     InconsistentSpecError, InvalidSpecError, MoranError,
                     PrecisionError, RegimeError, RuleEvalError)
from .specs import format_rational

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


def _manifest(command: str, source: dict, params: dict) -> str:
    payload = {"command": command, "source": source, "params": params}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    manifest = {
        **payload,
        "config_sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "package_version": __version__,
        "python_version": platform.python_version(),
    }
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def _csv(header: list[str], rows: list) -> Callable[[IO[str]], None]:
    return lambda fp: csv.writer(fp).writerows([header, *rows])


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise DomainError(f"--budget {budget} must be >= 1")


_SPEC_OPTIONS = (
    click.option("--config", "config_path",
                 type=click.Path(exists=True, dir_okay=False),
                 default=None, help="JSON construction description."),
    click.option("--preset", type=str, default=None,
                 help="Built-in construction name."),
)
_OUT_OPTION = click.option(
    "--out", type=click.Path(file_okay=False, path_type=Path),
    default="moranset-out", show_default=True,
    help="Run directory for artifacts.")


@click.group()
def main():
    """Build and audit homogeneous Moran constructions."""


def command(name: str, *options, out: bool = True):
    """Register subcommand `name` with `--config`/`--preset`, `--out` (if
    `out`) and `options`, in that order.

    The body gets the spec, the run directory (if `out`) and the option
    values.  It computes everything and returns its artifacts (file name to
    text, or to a function that writes to an open file) or, for a run whose
    verdict can fail, the artifacts and an exit status.  Only then are the
    artifacts written, `manifest.json` last, recording every option but the
    spec source and the run directory as given, keyed by its flag name
    (`--k-lo` as `k_lo`); so a run that fails writes no file.  A
    `MoranError` exits with its `EXIT_CODES` code.
    """
    def register(body):
        def run(preset, config_path, **values):
            try:
                spec, source = _load_spec(preset, config_path)
                result = body(spec, **values)
            except MoranError as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(EXIT_CODES.get(type(exc), EXIT_CODES[MoranError]))
            artifacts, status = result if isinstance(result, tuple) else (result, 0)
            if out:
                params = {flag: values[key] for key, flag in flags.items()}
                values["out"].mkdir(parents=True, exist_ok=True)
                artifacts["manifest.json"] = _manifest(name, source, params)
                for fname, content in artifacts.items():
                    with (values["out"] / fname).open("w", newline="") as fp:
                        if isinstance(content, str):
                            fp.write(content)
                        else:
                            content(fp)
            if status:
                sys.exit(status)
        run_options = (*_SPEC_OPTIONS, *((_OUT_OPTION,) if out else ()), *options)
        for option in reversed(run_options):
            run = option(run)
        cmd = main.command(name, help=body.__doc__)(run)
        flags = {p.name: p.opts[0][2:].replace("-", "_") for p in cmd.params
                 if p.name not in ("preset", "config_path", "out")}
        return cmd
    return register


@command("validate",
         click.option("--depth", type=int, default=10, show_default=True),
         out=False)
def validate(spec, depth):
    """Check the structural constraints level by level."""
    report = specs.validate_spec(spec, depth)
    click.echo(_json(report.to_dict()), nl=False)
    return {}, 0 if report.ok else EXIT_CODES[InvalidSpecError]


@command("build",
         click.option("--depth", type=int, default=6, show_default=True),
         click.option("--budget", type=int, default=tree.DEFAULT_NODE_BUDGET,
                      show_default=True, help="Cap on materialized intervals."))
def build(spec, out, depth, budget):
    """Materialize a level and export it with level statistics."""
    _check_budget(budget)
    level = tree.build_level(spec, depth, budget=budget)
    rows = []
    for k in range(1, depth + 1):
        st = tree.level_stats(spec, k, budget=budget)
        rows.append((k, st.count, *map(format_rational, (
            st.length, st.max_gap, st.min_gap, st.slack, st.total_length))))
    click.echo(f"wrote {len(level)} intervals and {depth} stat rows to {out}")
    return {"intervals.jsonl": lambda fp: tree.export_level(level, fp),
            "levels.csv": _csv(["k", "N_k", "delta_k", "alpha_bar",
                                "alpha_under", "e_k", "l_Ek"], rows)}


@command("dim",
         click.option("--depth", type=int, default=20, show_default=True),
         click.option("--t", "t_probe", type=float, default=None,
                      help="Also write the canonical cover t-sums at this exponent."))
def dim(spec, out, depth, t_probe):
    """Dimension-formula series (and optional cover sums)."""
    series = dimension.dim_formula_seq(spec, depth)
    artifacts = {"dim.csv": _csv(["k", "s_k"], [(k, series.value(k))
                                                for k in range(1, depth + 1)])}
    if t_probe is not None:
        star = reconstruct.first_reconstruct(spec, depth)
        sums = dimension.cover_sum(star, t_probe, depth)
        artifacts["cover.csv"] = _csv(["k", "cover_sum"],
                                      list(enumerate(sums, start=1)))
    click.echo(f"s_{depth} = {series.value(depth):.10f}; "
               f"trailing-window minimum = {series.tail_min:.10f}")
    return artifacts


@command("conditions",
         click.option("--depth", type=int, default=10, show_default=True))
def conditions(spec, out, depth):
    """Exact certificates for the three dimension conditions."""
    text = _json(dimension.check_conditions(spec, depth).to_dict())
    click.echo(text, nl=False)
    return {"conditions.json": text}


@command("reconstruct",
         click.option("--depth", type=int, default=10, show_default=True))
def reconstruct_cmd(spec, out, depth):
    """Trimmed-hierarchy statistics (the first reconstruction)."""
    if depth < 1:     # StarState(spec, 0) is valid, but has no stats row
        raise DomainError(
            f"depth {depth} is out of range: trimmed stats start at depth 1")
    star = reconstruct.first_reconstruct(spec, depth)
    rows = []
    for k in range(1, depth + 1):
        st = star.stats(k)
        rows.append((k, *map(format_rational, (
            st.length, st.max_gap, st.min_gap, st.slack, st.L, st.R))))
    click.echo(f"wrote trimmed stats for levels 1..{depth} to {out}")
    return {"star.csv": _csv(["k", "delta_star", "alpha_bar_star",
                              "alpha_under_star", "e_star", "L_star",
                              "R_star"], rows)}


@command("branches",
         click.option("--depth", type=int, default=8, show_default=True,
                      help="Construction depth covered by the schedule."),
         click.option("--m-max", type=int, default=None,
                      help="Top refinement level (default: the full schedule)."),
         click.option("--condition", type=click.Choice(["A", "B"]), default="A",
                      show_default=True),
         click.option("--mode", type=click.Choice(["auto", "explicit"]),
                      default="auto", show_default=True),
         click.option("--budget", type=int, default=tree.DEFAULT_NODE_BUDGET,
                      show_default=True))
def branches(spec, out, depth, m_max, condition, mode, budget):
    """The interpolated branch hierarchy (second reconstruction)."""
    _check_budget(budget)
    schedule = branchtree.choose_M(spec, condition, depth)
    built = branchtree.build_T(spec, schedule, m_max, mode=mode, budget=budget)
    rows = []
    for m in range(built.m_max + 1):
        st = built.branch_stats(m)
        rows.append((m, st.count, *map(format_rational, (
            st.max_len, st.min_len, st.total_len)), st.psi_max, st.psi_min))
    artifacts = {
        "schedule.csv": _csv(["k", "i_k", "m_k", "M"],
                             [(k, schedule.i[k - 1], schedule.m[k], schedule.M)
                              for k in range(1, depth + 1)]),
        "branch_stats.csv": _csv(["m", "count", "max_len", "min_len", "l_Tm",
                                  "psi_max", "psi_min"], rows),
    }
    if built.mode == "explicit":
        artifacts["branches.jsonl"] = lambda fp: fp.writelines(
            json.dumps({"m": m, "index": i, "lo": format_rational(br.lo),
                        "hi": format_rational(br.hi), "psi": br.span}) + "\n"
            for m in range(1, built.m_max + 1)
            for i, br in enumerate(built.explicit[m]))
    click.echo(f"M = {schedule.M}; built {built.mode} hierarchy to level "
               f"{built.m_max}; artifacts in {out}")
    return artifacts


@command("measure-audit",
         click.option("--condition", type=click.Choice(["A", "B", "C"]),
                      default="A", show_default=True),
         click.option("--t", "t_exp", type=float, required=True,
                      help="Frostman exponent to audit."),
         click.option("--k-lo", type=int, default=1, show_default=True),
         click.option("--k-hi", type=int, default=4, show_default=True),
         click.option("--mode", type=click.Choice(["exhaustive", "sampled"]),
                      default="exhaustive", show_default=True),
         click.option("--samples", type=int, default=2000, show_default=True),
         click.option("--seed", type=int, default=0, show_default=True),
         click.option("--threads", type=int, default=1, show_default=True))
def measure_audit(spec, out, condition, t_exp, k_lo, k_hi, mode, samples,
                  seed, threads):
    """Audit the mass-versus-window-size bound for the uniform measure."""
    star = reconstruct.first_reconstruct(spec, k_hi + 1)
    mm = measure.MassMeasure(star)
    audit = measure.frostman_audit(mm, condition, t_exp, (k_lo, k_hi),
                                   mode=mode, samples=samples, seed=seed,
                                   threads=threads)
    status = "PASS" if audit.passed else "FAIL"
    click.echo(f"{status}: worst ratio {audit.worst_ratio:.6f} vs constant "
               f"{float(audit.constant):.6f} over {audit.windows} windows")
    return {"audit.json": _json(audit.to_dict())}, 0 if audit.passed else 1


def _mapped(spec, schedule, fmap, d_exp,
            precision_bits=qsmap.DEFAULT_PRECISION_BITS):
    """(hierarchy, refinement statistics, `mu_d` ratio series) of `fmap`, in
    that order; an affine map maps a template hierarchy where one exists."""
    built = branchtree.build_T(spec, schedule,
                               mode="auto" if fmap.affine else "explicit")
    stats = qsmap.stats_series(built)
    image = qsmap.image_tree(fmap, built, precision_bits)
    return built, stats, qsmap.prop1_ratio_series(qsmap.build_mu_d(image, d_exp))


@command("qs",
         click.option("--map", "map_text", type=str, default="identity",
                      show_default=True,
                      help="Map family, e.g. power:2 or affine:3,-1."),
         click.option("--d", "d_exp", type=float, default=0.5, show_default=True),
         click.option("--depth", type=int, default=6, show_default=True),
         click.option("--condition", type=click.Choice(["A", "B"]), default="A",
                      show_default=True),
         click.option("--precision-bits", type=int,
                      default=qsmap.DEFAULT_PRECISION_BITS, show_default=True),
         click.option("--samples", type=int, default=2000, show_default=True),
         click.option("--seed", type=int, default=0, show_default=True))
def qs(spec, out, map_text, d_exp, depth, condition, precision_bits,
       samples, seed):
    """Map the branch hierarchy and audit the image-side quantities."""
    qsmap.check_length_power(d_exp)
    qsmap.check_precision_bits(precision_bits)
    qsmap.check_samples(samples)
    fmap = qsmap.parse_map(map_text)
    schedule = branchtree.choose_M(spec, condition, depth)
    built, stats, ratios = _mapped(spec, schedule, fmap, d_exp, precision_bits)
    top = built.levels[0][0]
    sandwich = qsmap.sandwich_audit(fmap, (top.lo, top.hi), samples, seed)
    summary = _json({
        "map": fmap.describe(),
        "d": d_exp,
        "ratio_growth_rate": ratios.growth_rate,
        "max_ratio": ratios.max_ratio(),
        "sandwich": {"p": sandwich.p, "q": sandwich.q, "lam": sandwich.lam},
    })
    click.echo(summary, nl=False)
    return {"stats.csv": _csv(["m", "beta", "theta", "chi", "kappa",
                               "lambda_star", "lambda_under", "gamma_star",
                               "gamma_under", "l_Tm"], list(stats.rows())),
            "ratio.csv": _csv(["k", "max_ratio"],
                              list(zip(ratios.levels, ratios.ratios))),
            "qs.json": summary}


@command("report",
         click.option("--depth", type=int, default=8, show_default=True),
         click.option("--qs", "map_text", type=str, default="identity",
                      show_default=True),
         click.option("--d", "d_exp", type=float, default=0.5, show_default=True),
         click.option("--condition", type=click.Choice(["A", "B"]), default="A",
                      show_default=True))
def report(spec, out, depth, map_text, d_exp, condition):
    """One JSON bundling the dimension series, certificates, and audits."""
    qsmap.check_length_power(d_exp)
    series = dimension.dim_formula_seq(spec, depth)
    cert = dimension.check_conditions(spec, depth)
    schedule = branchtree.choose_M(spec, condition, depth, cert=cert)
    fmap = qsmap.parse_map(map_text)
    built, stats, ratios = _mapped(spec, schedule, fmap, d_exp)
    lemma7 = []
    for k in range(1, depth + 1):
        st = built.branch_stats(schedule.m[k])
        lemma7.append({
            "k": k,
            "l_Tmk": format_rational(st.total_len),
            "expected": format_rational(
                Fraction(spec.count(k)) * built.star.delta_star(k)),
        })
    lemma8_ok = all(
        th >= 1 - (schedule.M ** 2 + 1) * b
        for b, th in zip(stats.beta, stats.theta)
        if 1 - (schedule.M ** 2 + 1) * b > 0)
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
    click.echo(f"report written to {out / 'report.json'}")
    return {"report.json": _json(bundle)}


if __name__ == "__main__":
    main()
