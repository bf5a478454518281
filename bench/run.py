"""moranset benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload levels|audit|image [--seed 42]
                         [--seconds 35] [--trace 0|1]

Run from a checkout of the repository (no install needed: children run with
`PYTHONPATH=src`).  Every pass is a fresh interpreter that imports the
package, generates the seeded inputs and runs all of the workload's jobs in
sequence, like a user running the CLI subcommands one after another.
Passes repeat until `--seconds` is spent; metrics are medians over passes.

`--trace 0` prints the end-to-end metrics: `wall_ref_s` (the wall time of
one pass), `peak_rss_mb` (the pass process's ru_maxrss) and `setup_s`
(spawn to first job, also sampled by set-up-only processes).  Both times
are rescaled to a reference host speed by an in-process calibration kernel
(calibrate.py); the raw times are on stderr.  `--trace 1` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones, plus `trace.overhead_s`, the traced minus the untraced median
`wall_ref_s`.

Correctness is checked in the same run: every job's artifact digest must
equal that of the first pass and, for seed 42, the committed reference in
`reference.json`; exact counts must repeat pass to pass; the oracle
cross-checks must pass.  Each failure counts in `failed`, and the run still
prints its result.  A human-readable summary goes to stderr; the last line
of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"

#: Set-up-only processes per run, on top of the passes, so that the set-up
#: median rests on enough samples.
SETUP_PROBES = 9
#: Fewest (untraced, traced) passes per run, without and with tracing.
MIN_PASSES = {0: (3, 0), 1: (2, 2)}
CHILD_TIMEOUT_S = 60
END_TO_END = ("wall_ref_s", "peak_rss_mb", "setup_s")


def spawn(run_dir: Path, workload: str, seed: int, mode: str,
          trace: int = 0) -> dict:
    """Run one child process and return its result (or an `error`)."""
    run_dir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    t0 = time.perf_counter()
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--trace", str(trace),
           "--out", str(run_dir), "--spawned-at", repr(t0)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} process timed out after {CHILD_TIMEOUT_S} s"}
    elapsed = time.perf_counter() - t0
    result_file = run_dir / "result.json"
    if proc.returncode != 0 or not result_file.is_file():
        return {"error": f"{mode} process exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}"}
    result = json.loads(result_file.read_text())
    result["elapsed_s"] = elapsed
    shutil.rmtree(run_dir)
    return result


def judge(passes: list[dict], jobs: list[str], reference: dict | None
          ) -> tuple[int, int, list[str]]:
    """Count job runs attempted and failed over all passes.

    A job run fails if it raised, if its digest or counts differ from the
    same job's first successful run, or if its digest differs from the
    reference.  A pass whose process died fails all of its jobs.
    """
    attempted = failed = 0
    problems: list[str] = []
    first: dict[str, dict] = {}
    for i, p in enumerate(passes):
        for name in jobs:
            attempted += 1
            res = p.get("jobs", {}).get(name)
            why = None
            if res is None:
                why = p.get("error", "missing from the pass result")
            elif res["error"] is not None:
                why = res["error"].strip().splitlines()[-1]
            elif reference is not None and res["digest"] != reference.get(name):
                why = f"digest {res['digest'][:12]} != reference"
            elif name in first and (res["digest"], res["counts"]) != first[name]:
                why = "digest or exact counts differ from the first pass"
            else:
                first.setdefault(name, (res["digest"], res["counts"]))
            if why is not None:
                failed += 1
                problems.append(f"pass {i} job {name}: {why}")
    return attempted, failed, problems


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4g} (q1 {q1:.4g}, q3 {q3:.4g}, n={len(values)})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "moranset" / "__init__.py").is_file():
        print(f"error: no moranset sources under {ROOT / 'src'}; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    jobs = [job.name for job in
            workloads.workload_jobs(args.workload, workloads.make_inputs(args.seed))]
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())[args.workload]

    runs = ROOT / ".bench_runs"
    runs.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs))
    try:
        probes = [spawn(tmp / f"setup{i}", args.workload, args.seed, "setup")
                  for i in range(SETUP_PROBES)]
        untraced: list[dict] = []
        traced: list[dict] = []
        start = time.perf_counter()
        while True:
            if args.trace and len(traced) < len(untraced):
                traced.append(spawn(tmp / f"pass{len(untraced) + len(traced)}",
                                    args.workload, args.seed, "pass", trace=1))
            else:
                untraced.append(spawn(tmp / f"pass{len(untraced) + len(traced)}",
                                      args.workload, args.seed, "pass"))
            done = untraced + traced
            typical = statistics.median(p.get("elapsed_s", 0.0) for p in done)
            need_untraced, need_traced = MIN_PASSES[args.trace]
            if (len(untraced) >= need_untraced and len(traced) >= need_traced
                    and time.perf_counter() - start + typical > args.seconds):
                break
        oracle = spawn(tmp / "oracles", args.workload, args.seed, "oracles")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed, problems = judge(untraced + traced, jobs, reference)
    checks = oracle.get("checks") or [
        {"name": "oracles", "ok": False, "detail": oracle.get("error")}]
    for check in checks:
        attempted += 1
        if not check["ok"]:
            failed += 1
            problems.append(f"oracle {check['name']}: {check['detail']}")
    problems += [f"set-up probe: {p['error']}" for p in probes if "error" in p]

    ok_passes = [p for p in untraced if "error" not in p]
    walls = [p["wall_s"] for p in ok_passes]
    setups = [p["setup_s"] for p in probes + untraced if "setup_s" in p]
    kernels = [p["kernel_s"] for p in untraced + traced if "kernel_s" in p]
    speed = calibrate.REFERENCE_S / statistics.median(kernels) if kernels else 1.0
    # The end-to-end times are rescaled to the reference host speed (see
    # calibrate.py).  The raw times, the CPU time of the job calls (which
    # excludes time the hypervisor steals from the VM) and the kernel times
    # go to stderr only, to show how much of the raw spread was host noise.
    samples = {
        "wall_ref_s": ("s", [p["wall_ref_s"] for p in ok_passes]),
        "peak_rss_mb": ("MB", [p["peak_rss_mb"] for p in ok_passes]),
        "setup_s": ("s", [x * speed for x in setups]),
        "raw wall_s": ("s", walls),
        "raw cpu_s": ("s", [p["cpu_s"] for p in ok_passes]),
        "raw setup_s": ("s", setups),
        "kernel_s": ("s", kernels),
    }
    summary = [f"workload {args.workload}, seed {args.seed}: "
               f"{len(untraced)} untraced and {len(traced)} traced passes of "
               f"{len(jobs)} jobs; failed {failed}/{attempted} "
               f"(failed_ratio {failed / attempted:.4g})"]
    summary += [f"{name} {quartiles(values)}"
                for name, (_, values) in samples.items()]
    if args.trace:
        traced_ok = [p for p in traced if "layers" in p]
        metrics = {}
        for name, unit in workloads.LAYER_UNITS.items():
            if name == "trace.overhead_s":
                value = (statistics.median(p["wall_ref_s"] for p in traced_ok)
                         - statistics.median(samples["wall_ref_s"][1])
                         ) if traced_ok and ok_passes else 0.0
            elif traced_ok:
                # counts repeat exactly (judge checks), so keep them integers
                median = statistics.median_low if unit in ("count", "bits") \
                    else statistics.median
                value = median(p["layers"][name] for p in traced_ok)
            else:
                value = 0.0
            metrics[name] = {"value": value, "unit": unit}
        if traced_ok:
            trace_file = runs / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps(traced_ok[-1]["spans"]))
            summary.append(f"spans of the last traced pass: {trace_file}")
        summary += [f"  {k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    else:
        metrics = {name: {"value": statistics.median(values) if values else 0.0,
                          "unit": unit}
                   for name, (unit, values) in samples.items()
                   if name in END_TO_END}
    print("\n".join(summary + problems[:20]), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
