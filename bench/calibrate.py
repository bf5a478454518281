"""Host-speed calibration for the benchmark's time metrics.

The benchmark's host is shared: the same pass takes ±20% longer from one
minute to the next, and up to twice as long for minutes at a time, while
the work done is identical.  To keep that drift out of the bounded metrics,
each pass also times this fixed pure-Python kernel in its own process,
before every job and after the last, and the runner rescales the pass's
times by `REFERENCE_S / kernel time`: seconds on a host where the kernel
takes `REFERENCE_S`.  The raw times are printed beside them.

The kernel does the kinds of work the jobs spend their time in (Fraction
arithmetic on growing denominators, string formatting, `json.dumps`, dicts,
recursive generators, integer loops) with the standard library only, in
constant memory so that it does not raise the pass's peak RSS.  It shares
no code with moranset, so a change to moranset moves the pass time and
leaves the kernel alone.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

#: Kernel time, in seconds, that defines the reference host speed; close to
#: the kernel's median on the 2-vCPU Xeon host that set the baseline.
REFERENCE_S = 0.13


def _leaves(depth: int):
    if depth == 0:
        yield 1
        return
    for _ in range(3):
        yield from _leaves(depth - 1)


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    t0 = time.perf_counter()
    total = Fraction(0)
    by_length: dict[int, int] = {}
    for i in range(1, 8001):
        x = Fraction(i, 3 ** (i % 23 + 1)) + Fraction(1, i + 1)
        if i % 7 == 0:
            total += x
        line = json.dumps({"i": i, "x": f"{x.numerator}/{x.denominator}"})
        by_length[len(line)] = by_length.get(len(line), 0) + 1
    leaves = sum(_leaves(8))
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    elapsed = time.perf_counter() - t0
    if total <= 0 or leaves != 3**8 or acc <= 0 or not by_length:
        raise AssertionError("calibration kernel computed a wrong result")
    return elapsed
