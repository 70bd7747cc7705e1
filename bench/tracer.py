"""Span recorder that times calls into thermofuse from outside the program.

`Tracer.wrap` replaces a public function or method at the attribute its
caller looks up (a class attribute for methods, the importing module's
global for functions imported by name) with a wrapper that records one
span per call: name, start, end, parent span and op id. The program's own
loops then run unchanged. Spans are kept in memory and written out when
the run ends; `restore` puts every original back, so untraced runs time
the unmodified code.

An entry point that no longer exists is reported as absent instead of
failing, so the benchmark keeps running after internals are reshaped.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict


_INHERITED = object()


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1, op id); parents precede children.
        self.spans: list[tuple] = []
        # Computed counts: metric name -> op id -> summed value.
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.absent: list[str] = []
        self.op = "setup"
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, counter=None) -> None:
        """Time every call of `owner.attr` as a span called `name`.

        `counter` is an optional (counter name, fn) pair; `fn(args, result)`
        returns a computed amount of work (flops, bytes) that is added to
        `counts[counter name][op]` after each call that returns.
        """
        original = getattr(owner, attr, None)
        if not callable(original):
            self.mark_absent(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op)
            if counter is not None:
                tracer.counts[counter[0]][tracer.op] += counter[1](args, result)
            return result

        # Keep the raw attribute (not the bound/unwrapped value) so that
        # restore() puts back exactly what was there.
        self._originals.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, traced)

    def mark_absent(self, entry: str) -> None:
        if entry not in self.absent:  # instrument() may run twice per tracer
            self.absent.append(entry)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._originals):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._originals.clear()

    # -- summaries -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self, self_time: bool = False) -> dict[str, dict[str, float]]:
        """name -> op id -> summed seconds (inclusive, or self time)."""
        own = self.self_times() if self_time else None
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, op) in enumerate(self.spans):
            out[name][op] += own[i] if self_time else end - start
        return out

    def write(self, spans_path, summary_path, extra: dict) -> None:
        """Spans as gzipped JSON lines; per-name calls/inclusive/self totals."""
        with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": i, "name": name, "start": start, "end": end,
                     "parent": parent, "op": op}
                ) + "\n")
        own = self.self_times()
        per_name: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = per_name.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += 1e3 * (end - start)
            row["self_ms"] += 1e3 * own[i]
        summary = dict(extra, absent=self.absent, spans=per_name)
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")


def span_cost_s(repeats: int = 20000) -> float:
    """Measured cost of one traced call over an untraced one, in seconds."""

    class Probe:
        @staticmethod
        def noop(x):
            return x

    plain = Probe.noop
    start = time.perf_counter()
    for i in range(repeats):
        plain(i)
    base = time.perf_counter() - start
    tracer = Tracer()
    tracer.wrap(Probe, "noop", "probe")
    traced = Probe.noop
    start = time.perf_counter()
    for i in range(repeats):
        traced(i)
    cost = time.perf_counter() - start
    tracer.restore()
    return max(cost - base, 0.0) / repeats
