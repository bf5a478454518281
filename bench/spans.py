"""In-memory span recorder for the benchmark's traced passes.

A span is one call from the benchmark into a moranset module (a "layer"),
kept as a dict with its layer, name, job, start, end, busy time, CPU time and
the index of the span that was open when it started.  Spans stay in memory
and are written out once the pass ends.  A layer's self time is the busy time
of its spans minus the busy time of their direct children, so a nested span
(a stream consumed inside another call) is charged to its own layer only.

The untraced passes use `NullRecorder`, whose spans cost one method call.
"""

from __future__ import annotations

import contextlib
import time
from typing import Iterable, Iterator


class Recorder:
    def __init__(self):
        self.spans: list[dict] = []
        self.job = "setup"
        self._open: list[int] = []

    def _new(self, layer: str, name: str) -> dict:
        rec = {"layer": layer, "name": name, "job": self.job,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, "busy": 0.0,
               "cpu": 0.0, "calls": 1}
        self.spans.append(rec)
        return rec

    @contextlib.contextmanager
    def span(self, layer: str, name: str) -> Iterator[None]:
        rec = self._new(layer, name)
        self._open.append(len(self.spans) - 1)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            rec["cpu"] = time.process_time() - c0
            self._open.pop()
            rec["end"] = t1
            rec["busy"] = t1 - t0

    def stream(self, layer: str, name: str, items: Iterable) -> Iterator:
        """Charge the time spent producing each item of a lazy stream to
        `layer`, as one span whose parent is the call consuming the stream."""
        rec = self._new(layer, name)
        rec["calls"] = 0

        def timed() -> Iterator:
            it = iter(items)
            busy = 0.0
            try:
                while True:
                    t0 = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        busy += time.perf_counter() - t0
                        return
                    busy += time.perf_counter() - t0
                    rec["calls"] += 1
                    yield item
            finally:
                rec["end"] = time.perf_counter()
                rec["busy"] = busy

        return timed()


class NullRecorder:
    """Tracing off: the same interface, recording nothing."""

    job = None
    _null = contextlib.nullcontext()

    def span(self, layer: str, name: str):
        return self._null

    def stream(self, layer: str, name: str, items: Iterable) -> Iterable:
        return items


def self_times(spans: list[dict]) -> list[float]:
    """Per span: its busy time minus that of its direct children."""
    out = [s["busy"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["busy"]
    return out
