"""One benchmark process: set up a workload, then run one pass or the
oracle cross-checks, and write the result as JSON.

Started by `run.py` in a fresh interpreter with `PYTHONPATH=src`, so each
pass pays the imports and input generation a CLI run pays.  `--spawned-at`
is the runner's `time.perf_counter()` just before the spawn; on Linux that
clock is CLOCK_MONOTONIC and is shared by both processes, so set-up time
runs from the spawn to the start of the first job.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("pass", "setup", "oracles"),
                    default="pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True,
                    help="Directory for the artifacts and result.json.")
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args(argv)

    import click  # noqa: F401  -- the CLI's import cost, paid by every run

    import workloads  # imports moranset, and with it mpmath
    from spans import NullRecorder, Recorder

    if args.mode == "oracles":
        import oracles
        result = {"checks": oracles.run_checks(args.seed)}
    else:
        rec = Recorder() if args.trace else NullRecorder()
        jobs = workloads.setup_jobs(args.workload, args.seed, rec)
        result = {"setup_s": time.perf_counter() - args.spawned_at}
        if args.mode == "pass":
            result.update(workloads.run_pass(jobs, args.out / "jobs", rec))
            result["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            if args.trace:
                totals = workloads.pass_totals(result["jobs"])
                result["layers"] = workloads.layer_metrics(rec.spans, totals, jobs)
                result["spans"] = rec.spans
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
