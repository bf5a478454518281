"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import partial

import pytest

import run
import spans
import workloads

#: Counts that measure how much work a job does (not what it computed).
SIZE_KEYS = ("tree.intervals", "reconstruct.intervals",
             "dimension.parents_enumerated", "dimension.box_intervals",
             "branchtree.branches", "measure.windows", "qsmap.endpoints",
             "qsmap.endpoint_lookups", "qsmap.image_branches")

#: Jobs whose inputs depend on the seed.
SEEDED_JOBS = ("build-weighted6-d6", "conditions-skew10-d5",
               "qs-weighted6-d4-power1_2", "audit-cantor3-t0.6-k7-sampled")


def _run_jobs(workload_names, seed, names, tmp_path):
    out = {}
    for w in workload_names:
        jobs = [j for j in workloads.setup_jobs(w, seed, spans.NullRecorder())
                if j.name in names]
        out.update(workloads.run_pass(jobs, tmp_path / f"{w}-{seed}",
                                      spans.NullRecorder())["jobs"])
    return out


def test_seed_changes_inputs_but_not_sizes(tmp_path):
    a, b = workloads.make_inputs(42), workloads.make_inputs(7)
    assert a != b
    assert a.skew_seed == 42          # seed 42 is the skew10 preset
    for w in workloads.WORKLOADS:
        ja, jb = workloads.workload_jobs(w, a), workloads.workload_jobs(w, b)
        assert [j.name for j in ja] == [j.name for j in jb]
        for x, y in zip(ja, jb):
            kx = {k: v for k, v in x.run.keywords.items() if k != "seed"}
            ky = {k: v for k, v in y.run.keywords.items() if k != "seed"}
            assert (x.depth, kx) == (y.depth, ky)
    ra = _run_jobs(workloads.WORKLOADS, 42, SEEDED_JOBS, tmp_path)
    rb = _run_jobs(workloads.WORKLOADS, 7, SEEDED_JOBS, tmp_path)
    assert set(ra) == set(rb) == set(SEEDED_JOBS)
    for name in SEEDED_JOBS:
        assert ra[name]["error"] is None and rb[name]["error"] is None
        assert ra[name]["digest"] != rb[name]["digest"], name
        sizes_a = {k: v for k, v in ra[name]["counts"].items() if k in SIZE_KEYS}
        sizes_b = {k: v for k, v in rb[name]["counts"].items() if k in SIZE_KEYS}
        assert sizes_a == sizes_b, name


def _boom(spec, out, rec):
    raise RuntimeError("boom")


def test_failed_jobs_are_counted_and_the_pass_completes(tmp_path):
    spec = workloads.make_spec("cantor3", workloads.make_inputs(42))
    good = partial(workloads.job_conditions, depth=3)
    jobs = [workloads.Job("boom", "cantor3", _boom, 3, spec=spec),
            workloads.Job("good", "cantor3", good, 3, spec=spec),
            workloads.Job("bad-setup", "cantor3", good, 3,
                          setup_error="ValueError: invalid spec")]
    result = workloads.run_pass(jobs, tmp_path / "p", spans.NullRecorder())
    assert "RuntimeError: boom" in result["jobs"]["boom"]["error"]
    assert result["jobs"]["good"]["error"] is None
    names = [j.name for j in jobs]
    digest = result["jobs"]["good"]["digest"]

    attempted, failed, problems = run.judge([result], names, None)
    assert (attempted, failed) == (3, 2)
    ref = {"boom": "x", "good": "0" * 64, "bad-setup": "x"}
    attempted, failed, problems = run.judge([result, result], names, ref)
    assert (attempted, failed) == (6, 6)
    assert any("!= reference" in p for p in problems)
    ref["good"] = digest
    assert run.judge([result, result], names, ref)[:2] == (6, 4)

    # a pass whose process died fails all of its jobs
    assert run.judge([{"error": "exited -9"}], names, None)[:2] == (3, 3)


def test_counts_must_repeat(tmp_path):
    spec = workloads.make_spec("cantor3", workloads.make_inputs(42))
    jobs = [workloads.Job("good", "cantor3",
                          partial(workloads.job_conditions, depth=3), 3, spec=spec)]
    first = workloads.run_pass(jobs, tmp_path / "a", spans.NullRecorder())
    second = json.loads(json.dumps(first))
    assert run.judge([first, second], ["good"], None)[:2] == (2, 0)
    second["jobs"]["good"]["counts"]["dimension.parents_enumerated"] += 1
    assert run.judge([first, second], ["good"], None)[:2] == (2, 1)


def test_default_seed_reproduces_reference_digests(tmp_path):
    reference = json.loads(run.REFERENCE.read_text())
    for w in workloads.WORKLOADS:
        jobs = workloads.setup_jobs(w, workloads.DEFAULT_SEED, spans.NullRecorder())
        result = workloads.run_pass(jobs, tmp_path / w, spans.NullRecorder())
        digests = {name: res.get("digest") for name, res in result["jobs"].items()}
        assert digests == reference[w]


def test_self_time_subtracts_nested_spans():
    rec = spans.Recorder()
    with rec.span("dimension", "box_count"):
        assert sum(rec.stream("tree", "iter_level", iter(range(5)))) == 10
    with rec.span("cli", "write"):
        pass
    outer, inner, other = rec.spans
    assert inner["parent"] == 0 and inner["calls"] == 5 and other["parent"] is None
    own = spans.self_times(rec.spans)
    assert own[0] == pytest.approx(outer["busy"] - inner["busy"])
    assert own[1] == inner["busy"] and own[2] == other["busy"]


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.LAYER_UNITS
    assert tuple(m["name"] for m in spec["end_to_end"]) == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_runner_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "levels", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
