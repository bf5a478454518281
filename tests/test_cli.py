"""End-to-end runs of the command-line interface."""

import json
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import moranset
from moranset import branchtree, dimension, measure
from moranset.cli import EXIT_CODES, main
from moranset.qsmap import (IdentityMap, build_mu_d, image_tree,
                            prop1_ratio_series)
from moranset.reconstruct import StarState
from moranset.specs import GapPolicy, preset


@pytest.fixture
def runner():
    return CliRunner()


def _run(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


def test_validate_ok(runner):
    res = _run(runner, ["validate", "--preset", "cantor3", "--depth", "5"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["ok"] is True
    assert len(report["levels"]) == 5


def test_validate_fail_exit_code(runner, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "n": {"kind": "constant", "values": [3]},
        "c": {"kind": "constant", "values": ["1/2"]},
        "L": {"kind": "constant", "values": ["0"]},
        "R": {"kind": "constant", "values": ["0"]},
        "gaps": {"kind": "uniform"}}))
    res = _run(runner, ["validate", "--config", str(cfg), "--depth", "3"])
    assert res.exit_code == 5
    assert json.loads(res.output)["ok"] is False


def test_validate_reports_slack_after_rejected_contraction(runner, tmp_path):
    # slack(3) needs delta(2), which fails because c_2 = 0: level 3 records
    # that problem and the run still prints the per-level report
    cfg = tmp_path / "c0.json"
    cfg.write_text(json.dumps({
        "n": {"kind": "constant", "values": [2]},
        "c": {"kind": "periodic", "values": ["1/3", "0"]},
        "L": {"kind": "constant", "values": ["0"]},
        "R": {"kind": "constant", "values": ["0"]},
        "gaps": {"kind": "uniform"}}))
    res = runner.invoke(main, ["validate", "--config", str(cfg), "--depth", "3"])
    assert res.exit_code == 5, res.output
    report = json.loads(res.output)
    assert report["error"] is None
    assert [lv["ok"] for lv in report["levels"]] == [True, False, False]
    assert report["levels"][2]["problems"] == ["c_2 = 0; need a positive rational"]


def test_spec_source_is_exclusive(runner, tmp_path):
    res = runner.invoke(main, ["validate"])
    assert res.exit_code == 3
    cfg = tmp_path / "c.json"
    cfg.write_text("{}")
    res = runner.invoke(main, ["validate", "--preset", "cantor3",
                               "--config", str(cfg)])
    assert res.exit_code == 3


_GOOD_CONFIG = {"n": {"kind": "constant", "values": [2]},
                "c": {"kind": "constant", "values": ["1/3"]},
                "L": {"kind": "constant", "values": ["0"]},
                "R": {"kind": "constant", "values": ["0"]},
                "gaps": {"kind": "uniform"}}
# Spec sources that no preset covers: a zero interior gap, so conditions A
# and C certify nothing, and an initial interval of length 9, whose trimmed
# level-2 length is exactly 1.
_ZERO_GAP_CONFIG = {**_GOOD_CONFIG, "n": {"kind": "constant", "values": [3]},
                    "c": {"kind": "constant", "values": ["1/4"]},
                    "gaps": {"kind": "weighted", "weights": ["0", "1"]}}
_LONG_CONFIG = {**_GOOD_CONFIG, "interval": {"lo": "0", "hi": "9"}}


@pytest.mark.parametrize("config,needle", [
    ({**_GOOD_CONFIG, "n": {"kind": "constant", "values": ["abc"]}},
     "rule 'n'"),
    ({**_GOOD_CONFIG, "interval": {"lo": "0"}}, "'interval'"),
    (json.dumps(_GOOD_CONFIG), "spec config must be an object"),
    ({**_GOOD_CONFIG, "gaps": "uniform"}, "'gaps'"),
    ({**_GOOD_CONFIG, "n": {"kind": "constant", "values": [2.7]}},
     "rule 'n' value 2.7 is not an integer"),
    ({**_GOOD_CONFIG, "c": {"kind": "constant", "values": "1/3"}},
     "rule 'c' 'values' must be a list"),
    ({**_GOOD_CONFIG, "gaps": {"kind": "seeded-random", "seed": 7.0}},
     "gap 'seed' must be an integer"),
    ({**_GOOD_CONFIG, "n": {"kind": "constant", "values": [3, 4]}},
     "rule 'n': a constant rule takes exactly one value, got 2"),
    # gap keys the policy kind does not read
    ({**_GOOD_CONFIG, "gaps": {"kind": "uniform", "weights": ["1", "5"]}},
     "gap 'weights' is read by kind 'weighted' only, not by kind 'uniform'"),
    ({**_GOOD_CONFIG, "gaps": {"weights": ["1", "5"]}},
     "gap 'weights' is read by kind 'weighted' only, not by kind 'uniform'"),
    ({**_GOOD_CONFIG, "gaps": {"kind": "weighted", "weights": ["1", "5"], "seed": 4}},
     "gap 'seed' is read by kind 'seeded-random' only, not by kind 'weighted'"),
], ids=["n-not-a-number", "interval-without-hi", "config-is-a-string",
        "gaps-is-a-string", "n-not-integral", "values-not-a-list",
        "seed-not-integer", "constant-with-two-values", "weights-on-uniform",
        "weights-on-default-kind", "seed-on-weighted"])
def test_malformed_config_exit_code(runner, tmp_path, config, needle):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    res = runner.invoke(main, ["build", "--config", str(cfg), "--depth", "2",
                               "--out", str(tmp_path / "out")])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 3
    assert needle in res.output
    assert "Traceback" not in res.output


def test_unknown_preset_exit_code(runner):
    res = runner.invoke(main, ["build", "--preset", "nope"])
    assert res.exit_code == 3


def test_budget_exit_code(runner, tmp_path):
    res = runner.invoke(main, ["build", "--preset", "wide10", "--depth", "9",
                               "--out", str(tmp_path), "--budget", "1000"])
    assert res.exit_code == 7


def test_build_artifacts(runner, tmp_path):
    res = _run(runner, ["build", "--preset", "cantor3", "--depth", "4",
                        "--out", str(tmp_path)])
    assert res.exit_code == 0
    lines = (tmp_path / "intervals.jsonl").read_text().splitlines()
    assert len(lines) == 16
    first = json.loads(lines[0])
    assert first["lo"] == "0/1" and first["hi"] == "1/81"
    rows = (tmp_path / "levels.csv").read_text().splitlines()
    assert rows[0].startswith("k,N_k,delta_k")
    assert rows[1].split(",")[:3] == ["1", "2", "1/3"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "build"
    assert "config_sha256" in manifest
    assert manifest["package_version"] == moranset.__version__


def test_dim_and_conditions(runner, tmp_path):
    res = _run(runner, ["dim", "--preset", "cantor3", "--depth", "10",
                        "--t", "0.7", "--out", str(tmp_path)])
    assert res.exit_code == 0
    assert "s_10 = 0.6309297536" in res.output
    assert (tmp_path / "dim.csv").exists()
    assert (tmp_path / "cover.csv").exists()
    res = _run(runner, ["conditions", "--preset", "cantor3", "--depth", "6",
                        "--out", str(tmp_path)])
    cert = json.loads((tmp_path / "conditions.json").read_text())
    assert cert["omega1"] == "1/1"
    assert cert["omega3"] == "2/3"
    assert cert["applicable"]["A"] is True


def test_reconstruct_and_branches(runner, tmp_path):
    res = _run(runner, ["reconstruct", "--preset", "padded2", "--depth", "4",
                        "--out", str(tmp_path)])
    assert res.exit_code == 0
    rows = (tmp_path / "star.csv").read_text().splitlines()
    assert rows[1].split(",")[1] == "15/64"
    res = _run(runner, ["branches", "--preset", "wide10", "--depth", "3",
                        "--mode", "explicit", "--out", str(tmp_path)])
    assert res.exit_code == 0
    assert "M = 3" in res.output
    sched = (tmp_path / "schedule.csv").read_text().splitlines()
    assert sched[1] == "1,2,2,3"
    assert (tmp_path / "branch_stats.csv").exists()
    branches = (tmp_path / "branches.jsonl").read_text().splitlines()
    assert json.loads(branches[0])["m"] == 1


def test_measure_audit_pass_and_regime(runner, tmp_path):
    res = _run(runner, ["measure-audit", "--preset", "cantor3", "--t", "0.6",
                        "--k-hi", "3", "--out", str(tmp_path)])
    assert res.exit_code == 0
    assert res.output.startswith("PASS")
    audit = json.loads((tmp_path / "audit.json").read_text())
    assert audit["t"] == 0.6
    res = runner.invoke(main, ["measure-audit", "--preset", "cantor3",
                               "--t", "0.95", "--out", str(tmp_path)])
    assert res.exit_code == 11


def test_qs_and_report(runner, tmp_path):
    res = _run(runner, ["qs", "--preset", "cantor3", "--map", "power:2",
                        "--d", "0.5", "--depth", "5", "--out", str(tmp_path)])
    assert res.exit_code == 0
    summary = json.loads((tmp_path / "qs.json").read_text())
    assert summary["map"].startswith("power")
    assert summary["sandwich"]["q"] <= 2.1
    assert (tmp_path / "stats.csv").exists()
    assert (tmp_path / "ratio.csv").exists()
    res = _run(runner, ["report", "--preset", "cantor3", "--depth", "6",
                        "--out", str(tmp_path)])
    assert res.exit_code == 0
    bundle = json.loads((tmp_path / "report.json").read_text())
    assert bundle["refinement_length_bound_ok"] is True
    for row in bundle["branch_length_identity"]:
        assert row["l_Tmk"] == row["expected"]


def test_report_multi_step_stages_use_explicit_series(runner, tmp_path):
    # wide10 refines every stage in two steps (i_k = 2), so its level-m
    # branches are not one construction level's equal intervals: the
    # identity's series is the explicit mu_d series over branch levels
    res = _run(runner, ["report", "--preset", "wide10", "--depth", "3",
                        "--out", str(tmp_path)])
    assert res.exit_code == 0
    bundle = json.loads((tmp_path / "report.json").read_text())
    spec = preset("wide10")
    schedule = branchtree.choose_M(spec, "A", 3)
    assert schedule.i == [2, 2, 2]
    tree = branchtree.build_T(spec, schedule, schedule.m_max, mode="explicit")
    want = prop1_ratio_series(build_mu_d(image_tree(IdentityMap(), tree), 0.5))
    assert bundle["ratio_series"]["levels"] == want.levels == list(range(1, 7))
    assert bundle["ratio_series"]["ratios"] == want.ratios


def test_rerun_byte_identical(runner, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        res = _run(runner, ["build", "--preset", "skew10", "--depth", "3",
                            "--out", str(out)])
        assert res.exit_code == 0
    for name in ("intervals.jsonl", "levels.csv", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_sampled_audit_thread_independent(runner, tmp_path):
    outs = []
    for threads, sub in (("1", "t1"), ("4", "t4")):
        out = tmp_path / sub
        res = _run(runner, ["measure-audit", "--preset", "cantor3",
                            "--t", "0.6", "--k-lo", "2", "--k-hi", "4",
                            "--mode", "sampled", "--samples", "200",
                            "--seed", "9", "--threads", threads,
                            "--out", str(out)])
        assert res.exit_code == 0
        data = json.loads((out / "audit.json").read_text())
        data.pop("mode", None)
        outs.append(data)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("args,needle", [
    (["dim", "--depth", "0"], "depth 0"),
    (["dim", "--depth", "-1"], "depth -1"),
    (["report", "--depth", "0"], "depth 0"),
    (["build", "--depth", "-1"], "depth -1"),
    (["conditions", "--depth", "0"], "depth 0"),
    (["branches", "--depth", "0"], "depth 0"),
    (["qs", "--depth", "0"], "depth 0"),
    (["reconstruct", "--depth", "-1"], "depth -1"),
    (["measure-audit", "--t", "-1"], "t=-1"),
    (["measure-audit", "--t", "0"], "t=0"),
    (["measure-audit", "--t", "0.6", "--threads", "0"], "thread count 0"),
    (["measure-audit", "--t", "0.6", "--mode", "sampled", "--samples", "0"],
     "sample count 0"),
    (["report", "--depth", "2", "--d", "-1"], "d=-1.0"),
    (["report", "--depth", "2", "--d", "1.5"], "d=1.5"),
    (["qs", "--depth", "2", "--d", "nan"], "d=nan"),
    (["qs", "--depth", "2", "--map", "power:1/2", "--precision-bits", "-5"],
     "precision -5"),
    (["qs", "--depth", "2", "--precision-bits", "0"], "precision 0"),
    (["qs", "--depth", "2", "--samples", "0"], "sample count 0"),
    (["validate", "--depth", "0"], "depth 0"),
    (["qs", "--depth", "2", "--m-max", "1"], "m_max = 1"),
    (["reconstruct", "--depth", "0"], "depth 0"),
    (["qs", "--depth", "2", "--precision-bits", "16385"], "precision 16385"),
    (["qs", "--depth", "3", "--map", "power:1/2", "--d", "1e-13"],
     "d=1e-13 rounds to 0"),
    (["qs", "--depth", "3", "--map", "power:1/2", "--d", "0.9999999999999"],
     "d=0.9999999999999 rounds to 1"),
    (["report", "--depth", "2", "--d", "1e-13"], "d=1e-13 rounds to 0"),
    (["report", "--depth", "2", "--d", "0.9999999999999"],
     "d=0.9999999999999 rounds to 1"),
    (["build", "--depth", "3", "--budget", "-5"], "--budget -5"),
    (["build", "--depth", "3", "--budget", "0"], "--budget 0"),
    (["branches", "--depth", "4", "--budget", "-1"], "--budget -1"),
    (["branches", "--depth", "4", "--budget", "0"], "--budget 0"),
])
def test_out_of_range_parameter_exit_code(runner, tmp_path, args, needle):
    out = [] if args[0] == "validate" else ["--out", str(tmp_path)]
    res = runner.invoke(main, args + ["--preset", "cantor3"] + out)
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 10
    assert needle in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("args,artifact", [
    (["qs", "--map", "power:200"], "ratio.csv"),
    (["report", "--qs", "power:200"], "report.json"),
])
def test_tiny_image_lengths_give_finite_ratios(runner, tmp_path, args, artifact):
    # level-6 images of cantor3 under x^200 are as short as 3^-1200, whose
    # float is 0.0: the ratio comes from exact logs instead
    res = runner.invoke(main, args + ["--preset", "cantor3", "--depth", "6",
                                      "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    if artifact == "ratio.csv":
        rows = (tmp_path / artifact).read_text().splitlines()[1:]
        ratios = [float(row.split(",")[1]) for row in rows]
    else:
        data = json.loads((tmp_path / artifact).read_text())
        ratios = data["ratio_series"]["ratios"]
    assert len(ratios) == 6
    assert all(0 < r < float("inf") for r in ratios)


@pytest.mark.parametrize("args", [["qs"], ["report"],
                                  ["report", "--qs", "power:2"]])
def test_ratio_past_float_range_exit_code(runner, tmp_path, args):
    # n = 2 and c = 10^-100: the max ratio grows by 10^90/2 per level at
    # d = 0.9, past float range at level 4
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({
        "n": {"kind": "constant", "values": [2]},
        "c": {"kind": "constant", "values": [f"1/{10 ** 100}"]},
        "L": {"kind": "constant", "values": ["0"]},
        "R": {"kind": "constant", "values": ["0"]},
        "gaps": {"kind": "uniform"}}))
    out = tmp_path / "out"
    res = runner.invoke(main, args + ["--config", str(cfg), "--depth", "4",
                                      "--d", "0.9", "--out", str(out)])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 12, res.output
    assert "level 4" in res.output
    assert not out.exists()


def test_audit_budget_checked_before_any_window(runner, tmp_path, monkeypatch):
    # level 1 fits the window budget and level 2 does not: the run stops
    # before measuring a single window of level 1
    def no_windows(*args, **kwargs):
        raise AssertionError("a window was measured before the budget check")
    monkeypatch.setattr(measure, "power_ratio", no_windows)
    res = runner.invoke(main, ["measure-audit", "--preset", "skew10",
                               "--t", "0.3", "--k-hi", "3",
                               "--out", str(tmp_path)])
    assert res.exit_code == 7, res.output
    assert ("level 2 exhaustive audit needs 1999000 windows "
            "(> budget 1000000)") in res.output


def test_audit_budget_bound_checked_before_the_level_is_built(
        runner, tmp_path, monkeypatch):
    # wide10 level 6 has 10^6 intervals, so level 5 spans at least
    # 10^6 (10^6 + 1) / 2 endpoint pairs: the run stops on that bound
    # without streaming a single trimmed interval
    def no_levels(*args, **kwargs):
        raise AssertionError("a level was built before the budget check")
    monkeypatch.setattr(StarState, "iter_level", no_levels)
    start = time.perf_counter()
    res = runner.invoke(main, ["measure-audit", "--preset", "wide10",
                               "--t", "0.6", "--k-lo", "5", "--k-hi", "5",
                               "--out", str(tmp_path)])
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == 7, res.output
    assert ("level 5 exhaustive audit needs at least 500000500000 windows "
            "(> budget 1000000)") in res.output
    assert not any(tmp_path.iterdir())


def test_window_budget_checked_before_the_certificate(runner, tmp_path,
                                                      monkeypatch):
    # the audit's certificate through level 6 would draw the gaps of
    # skew10's 111,111 parents; level 5's window bound stops the run first
    def no_certificate(*args, **kwargs):
        raise AssertionError("the certificate ran before the window budget")
    monkeypatch.setattr(measure, "check_conditions", no_certificate)
    start = time.perf_counter()
    res = runner.invoke(main, ["measure-audit", "--preset", "skew10",
                               "--t", "0.3", "--k-lo", "5", "--k-hi", "5",
                               "--out", str(tmp_path)])
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == 7, res.output
    assert ("level 5 exhaustive audit needs at least 500000500000 windows "
            "(> budget 1000000)") in res.output
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    ["conditions", "--depth", "8"], ["report"], ["branches"]])
def test_certificate_budget_checked_before_any_level(runner, tmp_path,
                                                     monkeypatch, args):
    # skew10's level 8 needs 10^7 parents, past the node budget: the
    # certificate stops before drawing the gaps of any shallower level
    def no_gaps(*args, **kwargs):
        raise AssertionError("gaps were drawn before the budget check")
    monkeypatch.setattr(GapPolicy, "gap_weights", no_gaps)
    res = runner.invoke(main, args + ["--preset", "skew10",
                                      "--out", str(tmp_path)])
    assert res.exit_code == 7, res.output
    assert ("gap stats at level 8 need 10000000 parents "
            "(> budget 2097152)") in res.output
    assert not any(tmp_path.iterdir())


def test_power_root_past_size_cap_exits_12_at_once(runner, tmp_path):
    out = tmp_path / "run"
    start = time.perf_counter()
    res = runner.invoke(main, ["qs", "--preset", "cantor3", "--depth", "3",
                               "--map", "power:1/1000000", "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == 12, res.output
    assert "power exponent 1/1000000" in res.output
    assert not out.exists()


def test_exact_power_image_past_size_cap_exits_12_at_once(runner, tmp_path):
    # every level-2 endpoint of cantor3 has an exact millionth power, of
    # at least two million bits
    out = tmp_path / "run"
    start = time.perf_counter()
    res = runner.invoke(main, ["qs", "--preset", "cantor3", "--depth", "3",
                               "--map", "power:1000000", "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == 12, res.output
    assert "power exponent 1000000" in res.output
    assert not out.exists()


def test_zero_gap_leaves_conditions_a_and_c_inapplicable(runner, tmp_path):
    cfg = tmp_path / "zero_gap.json"
    cfg.write_text(json.dumps(_ZERO_GAP_CONFIG))
    res = runner.invoke(main, ["conditions", "--config", str(cfg), "--depth",
                               "3", "--out", str(tmp_path / "cert")])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["applicable"] == {"A": False, "B": True,
                                                    "C": False}
    for condition in "AC":
        out = tmp_path / condition
        res = runner.invoke(main, ["measure-audit", "--config", str(cfg),
                                   "--condition", condition, "--t", "0.5",
                                   "--k-hi", "2", "--out", str(out)])
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 9, res.output
        assert f"condition {condition} is inapplicable" in res.output
        assert not out.exists()


@pytest.mark.parametrize("args,series_of", [
    (["dim", "--depth", "4"], lambda out: (out / "dim.csv").read_bytes()),
    (["report", "--depth", "4"],
     lambda out: json.loads((out / "report.json").read_text())["dim_series"]),
    (["measure-audit", "--t", "0.9", "--k-hi", "3", "--condition", "B"],
     None),
], ids=["dim", "report", "measure-audit"])
def test_dimension_series_is_scale_free(runner, tmp_path, args, series_of):
    # s_k reads delta*_k / |I|: initial intervals of length 1, 9 (trimmed
    # level-2 length exactly 1) and 89/10 give dim and report the same
    # series, and t = 0.9 lies above the series' minimum log 2 / log 3 on
    # every scale, so measure-audit exits 11
    series = []
    for name, hi in (("unit", "1"), ("long", "9"), ("longer", "89/10")):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({**_GOOD_CONFIG,
                                   "interval": {"lo": "0", "hi": hi}}))
        out = tmp_path / name
        res = runner.invoke(main, args + ["--config", str(cfg),
                                          "--out", str(out)])
        if series_of is None:
            assert isinstance(res.exception, SystemExit), res.exception
            assert res.exit_code == 11, res.output
            assert not out.exists()
        else:
            assert res.exit_code == 0, res.output
            series.append(series_of(out))
    assert all(s == series[0] for s in series)


@pytest.mark.parametrize("args,code", [
    (["measure-audit", "--t", "0.99"], 11),
    (["qs", "--depth", "4", "--samples", "0"], 10),
    (["report", "--depth", "2", "--d", "-1"], 10),
    (["dim", "--t", "2"], 10),
    (["branches", "--m-max", "99"], 10),
    (["branches", "--preset", "wide10", "--depth", "8", "--mode", "explicit"], 7),
    (["qs", "--d", "-1"], 10),
    (["qs", "--precision-bits", "0"], 10),
    (["qs", "--samples", "0"], 10),
    (["branches", "--preset", "skew10", "--depth", "2", "--mode", "template"], 10),
    (["qs", "--depth", "2", "--map", "affine:2,0+power:700"], 12),
    (["qs", "--depth", "2", "--map", "power:2000+affine:3,0"], 12),
])
def test_failed_run_writes_no_manifest(runner, tmp_path, args, code):
    # artifacts are written only after the whole computation, and the
    # manifest last, so a run that fails leaves no file at all
    preset = [] if "--preset" in args else ["--preset", "cantor3"]
    res = runner.invoke(main, args + preset + ["--out", str(tmp_path)])
    assert res.exit_code == code, res.output
    assert not any(tmp_path.iterdir())


def test_explicit_budget_checked_before_any_stage(runner, tmp_path, monkeypatch):
    # stages 1-6 of wide10 fit the node budget and stage 7 does not: the
    # run stops before building a single stage
    def no_stages(*args, **kwargs):
        raise AssertionError("a stage was built before the budget check")
    monkeypatch.setattr(StarState, "level", no_stages)
    res = runner.invoke(main, ["branches", "--preset", "wide10", "--depth", "8",
                               "--mode", "explicit", "--out", str(tmp_path)])
    assert res.exit_code == 7, res.output
    assert "explicit refinement at stage 7 needs 10000000" in res.output


@pytest.mark.parametrize("args,needle", [
    (["qs", "--samples", "0"], "sample count 0"),
    (["qs", "--d", "2"], "d=2.0"),
    (["qs", "--precision-bits", "0"], "precision 0"),
    (["report", "--qs", "power:2", "--d", "2"], "d=2.0"),
])
def test_run_parameters_checked_before_any_build(runner, tmp_path, monkeypatch,
                                                 args, needle):
    # the parameters are checked before the schedule or the dimension
    # series, the first stage each run builds
    def no_build(*_args, **_kwargs):
        raise AssertionError("a stage was built before the parameter check")
    monkeypatch.setattr(branchtree, "choose_M", no_build)
    monkeypatch.setattr(dimension, "dim_formula_seq", no_build)
    res = runner.invoke(main, args + ["--preset", "wide10", "--depth", "4",
                                      "--out", str(tmp_path)])
    assert res.exit_code == 10, res.output
    assert needle in res.output


#: A quick successful run of every subcommand that takes --out.
_SMALL_RUNS = {
    "build": ["--depth", "2"],
    "dim": ["--depth", "2"],
    "conditions": ["--depth", "2"],
    "reconstruct": ["--depth", "2"],
    "branches": ["--depth", "2"],
    "measure-audit": ["--t", "0.6", "--k-hi", "1"],
    "qs": ["--depth", "2", "--samples", "20"],
    "report": ["--depth", "2"],
}


@pytest.mark.parametrize("name", sorted(_SMALL_RUNS))
def test_manifest_records_every_option(runner, tmp_path, name):
    # `command` records the options as click parsed them: every option
    # except the spec source and the run directory, keyed by flag name
    assert set(_SMALL_RUNS) == {
        cmd for cmd, c in main.commands.items()
        if any("--out" in p.opts for p in c.params)}
    res = runner.invoke(main, [name, *_SMALL_RUNS[name], "--preset", "cantor3",
                               "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    flags = {opt[2:].replace("-", "_")
             for p in main.commands[name].params for opt in p.opts}
    params = json.loads((tmp_path / "manifest.json").read_text())["params"]
    assert set(params) == flags - {"preset", "config", "out"}


def test_branches_manifest_records_m_max_as_given(runner, tmp_path):
    res = runner.invoke(main, ["branches", "--preset", "cantor3", "--depth",
                               "2", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    params = json.loads((tmp_path / "manifest.json").read_text())["params"]
    assert params["m_max"] is None
    # the schedule gives the resolved top level
    last = (tmp_path / "schedule.csv").read_text().splitlines()[-1]
    assert last.split(",")[2] == "2"


def test_failed_audit_verdict_writes_manifest(runner, tmp_path, monkeypatch):
    # an audit that completes with FAIL is a finished run: it exits 1 after
    # writing audit.json and the manifest
    monkeypatch.setattr(measure, "bound_constant", lambda *args: Fraction(0))
    res = runner.invoke(main, ["measure-audit", "--preset", "cantor3",
                               "--t", "0.6", "--k-hi", "2",
                               "--out", str(tmp_path)])
    assert res.exit_code == 1, res.output
    assert res.output.startswith("FAIL")
    assert (tmp_path / "audit.json").exists()
    assert (tmp_path / "manifest.json").exists()


_PRESETS = ["cantor3", "dim1_binary", "wide10", "skew10", "padded2"]
#: Config files the fuzz writes out and reads as spec sources.
_CONFIGS = {"zero_gap": _ZERO_GAP_CONFIG, "long": _LONG_CONFIG}
_DEPTH = st.integers(-1, 3)
_SMALL_DEPTH = st.integers(-1, 2)
_CONDITION = st.sampled_from(["A", "B"])
# Per subcommand: options always given (the sizes, kept small so that every
# run is quick), then options given or left at their defaults.
_SUBCOMMANDS = {
    "validate": ({"--depth": _DEPTH}, {}),
    "build": ({"--depth": _DEPTH},
              {"--budget": st.sampled_from([10, 10**4])}),
    "dim": ({"--depth": _DEPTH}, {"--t": st.sampled_from([-1, 0.5, 1, 2])}),
    "conditions": ({"--depth": _DEPTH}, {}),
    "reconstruct": ({"--depth": _DEPTH}, {}),
    "branches": ({"--depth": _SMALL_DEPTH},
                 {"--m-max": st.integers(-1, 4), "--condition": _CONDITION,
                  "--mode": st.sampled_from(["auto", "template", "explicit"])}),
    "measure-audit": ({"--t": st.sampled_from([-1, 0, 0.3, 0.6, 0.95]),
                       "--k-hi": st.integers(0, 3),
                       "--samples": st.integers(0, 20)},
                      {"--condition": st.sampled_from(["A", "B", "C"]),
                       "--k-lo": st.integers(0, 2),
                       "--mode": st.sampled_from(["exhaustive", "sampled"]),
                       "--threads": st.integers(0, 2)}),
    "qs": ({"--depth": _SMALL_DEPTH, "--samples": st.integers(0, 20)},
           {"--m-max": st.integers(-1, 3), "--condition": _CONDITION,
            "--map": st.sampled_from(["identity", "power:2", "power:1/2",
                                      "affine:3,-1", "pl:0,0;1,2",
                                      "power:2+affine:3,-1", "affine:-1,0",
                                      "bogus"]),
            "--d": st.sampled_from([0.5, 1.0, -1.0])}),
    "report": ({"--depth": _SMALL_DEPTH},
               {"--qs": st.sampled_from(["identity", "power:2"]),
                "--condition": _CONDITION}),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    argv = [command, *draw(st.sampled_from(
        [["--preset", p] for p in _PRESETS]
        + [["--config", c] for c in sorted(_CONFIGS)]))]
    always, maybe = _SUBCOMMANDS[command]
    for option, values in always.items():
        argv += [option, str(draw(values))]
    for option, values in maybe.items():
        if draw(st.booleans()):
            argv += [option, str(draw(values))]
    return argv


@given(_argv())
@settings(max_examples=100, deadline=None)
def test_cli_fuzz_exits_with_documented_codes(argv):
    with tempfile.TemporaryDirectory() as out, \
            tempfile.TemporaryDirectory() as configs:
        if argv[1] == "--config":
            cfg = Path(configs, argv[2] + ".json")
            cfg.write_text(json.dumps(_CONFIGS[argv[2]]))
            argv = [argv[0], argv[1], str(cfg), *argv[3:]]
        args = argv if argv[0] == "validate" else argv + ["--out", out]
        res = CliRunner().invoke(main, args)
        left = sorted(p.name for p in Path(out).iterdir())
    assert res.exception is None or isinstance(res.exception, SystemExit), (
        f"{argv}: {res.exception!r}")
    assert res.exit_code in {0, 1, *EXIT_CODES.values()}, (argv, res.output)
    # only a finished run (a PASS, or a FAIL verdict) writes files
    assert res.exit_code in {0, 1} or not left, (argv, res.exit_code, left)
