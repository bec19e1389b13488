"""In-memory spans and counters around the package's module boundaries.

The benchmark never edits the package: :func:`install` replaces public
functions on the imported modules with wrappers, and :func:`uninstall`
restores them.  Calls resolved through a module attribute (``fm.foo`` from
another module, or a same-module global lookup) see the wrapper.

Two kinds of boundary are recorded:

* spans, for coarse calls (a CLI invocation, one finder or indexer call,
  one traced line): name, start, end, parent span and op id;
* kernels, for hot leaf calls (the form kernel, the chart radicand, chart
  points): call and point counts and busy time, charged to the innermost
  open span so that self times can subtract them without keeping one span
  per call.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1          # index into Tracer.spans, -1 for a root
    op: int = -1
    kernel_s: float = 0.0     # busy time of kernels called directly inside
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._in_kernel = False
        self._saved = []
        self.op = -1

    # -- recording -----------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=self.op))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self):
        self.spans[self._stack.pop()].end = time.perf_counter()

    def count(self, key, n=1):
        if self._stack:
            c = self.spans[self._stack[-1]].counts
            c[key] = c.get(key, 0) + n

    def _span_wrapper(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if on_result is not None:
                on_result(span, args, result)
            return result

        return wrapper

    def _kernel_wrapper(self, name, fn, points_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = self._in_kernel
            self._in_kernel = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._in_kernel = nested
                self.count(name + ".calls")
                self.count(name + ".s", dt)
                if points_of is not None:
                    self.count(name + ".points", points_of(args))
                if not nested and self._stack:
                    self.spans[self._stack[-1]].kernel_s += dt

        return wrapper

    # -- installation ----------------------------------------------------------

    def _patch(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self):
        """Wrap the boundaries of every package module."""
        from umbilics import cli, flowlines, forms, index, surface, umbilic

        def uv_points(args):
            return int(np.broadcast(np.asarray(args[2]), np.asarray(args[3])).size)

        def on_records(span, args, records):
            span.counts["umbilic.records"] = len(records)
            span.counts["umbilic.non_isolated"] = sum(
                1 for r in records if r.kind != umbilic.ISOLATED
            )

        def on_winding(span, args, result):
            span.counts["index.ring_evals"] = result.samples

        def on_trace(span, args, trace):
            span.counts["flowlines.steps"] = len(trace.points) - 1

        for module, attr, name in (
            (forms, "closed_forms_arrays", "forms.closed_forms_arrays"),
            (surface, "radicand", "surface.radicand"),
            (surface, "chart_points", "surface.chart_points"),
        ):
            self._patch(module, attr, self._kernel_wrapper(name, getattr(module, attr), uv_points))
        for module, attr, name, hook in (
            (cli, "main", "cli", None),
            (umbilic, "find_umbilics", "umbilic.find_umbilics", on_records),
            (index, "attach_indices", "index.attach_indices", None),
            (index, "umbilic_index", "index.umbilic_index", on_winding),
            (index, "poincare_hopf_check", "index.poincare_hopf_check", None),
            (flowlines, "trace_line", "flowlines.trace_line", on_trace),
        ):
            self._patch(module, attr, self._span_wrapper(name, getattr(module, attr), hook))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- derived figures -----------------------------------------------------

    def self_times(self):
        """Span duration minus child spans and kernels called directly in it."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - child[i] - s.kernel_s for i, s in enumerate(self.spans)]

    def inclusive_counts(self):
        """Per span, its own counts plus those of every descendant."""
        out = [dict(s.counts) for s in self.spans]
        for i in range(len(self.spans) - 1, -1, -1):
            p = self.spans[i].parent
            if p >= 0:
                for k, v in out[i].items():
                    out[p][k] = out[p].get(k, 0) + v
        return out

    def dump(self, path):
        """Write every span as one tab-separated line."""
        selfs = self.self_times()
        with open(path, "w") as fh:
            fh.write("id\tname\top\tparent\tstart\tend\tself_s\tcounts\n")
            for i, s in enumerate(self.spans):
                counts = ",".join(f"{k}={v:.9g}" for k, v in sorted(s.counts.items()))
                fh.write(
                    f"{i}\t{s.name}\t{s.op}\t{s.parent}\t{s.start:.9f}\t{s.end:.9f}\t"
                    f"{selfs[i]:.9f}\t{counts}\n"
                )
