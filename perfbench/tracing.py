"""Spans and call counters for the traced benchmark run.

The traced run replaces a fixed set of public library functions, at the
module attributes their callers look up, by wrappers that record into a
`Tracer`.  The untraced run never calls `Tracer.install`, so there the
library objects stay the library's own; `installed_wrappers` checks it.

* Spans (name, start, end, parent) are kept in memory and written out at
  the end.  A span's self time is its duration minus the time of its child
  spans and of the counted calls made while it was the innermost span.
* Per-step calls (`transformed_gradient`, `h_forward`) are counted, not
  spanned: a call count plus total thread CPU time.  CPU time rather than
  wall time, because chains share the interpreter lock in a thread pool and
  a call's wall time would include waiting for another chain's step.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from collections import defaultdict

import numpy as np

# (owner, attribute, span or counter name, kind); kind "span" opens a span
# around each call, "count" adds to a counter.
PATCHES = (
    ("tula.sampler", "transformed_gradient", "dynamics.transformed_gradient", "count"),
    ("tula.transform", "h_forward", "transform.h_forward", "count"),
    ("tula.cli", "run_tula", "sampler.run_tula", "span"),
    ("tula.cli", "write_chain_csv", "sampler.write_chain_csv", "span"),
    ("tula.cli", "run_summary", "sampler.run_summary", "span"),
    ("tula.cli", "radial_diagnostics", "analysis.radial_diagnostics", "span"),
    ("tula.analysis:RadialQuadrature", "__init__", "analysis.quadrature_build", "span"),
    ("tula.analysis:RadialQuadrature", "sf", "analysis.sf", "span"),
)


def _resolve(owner: str):
    """``"pkg.module"`` or ``"pkg.module:Class"`` to the object itself."""
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def installed_wrappers() -> list[str]:
    """Patched attributes currently in place (empty in an untraced run)."""
    return [
        f"{owner}.{attr}"
        for owner, attr, _, _ in PATCHES
        if hasattr(getattr(_resolve(owner), attr, None), "__benchmark_wrapped__")
    ]


class NullTracer:
    """Stand-in for untraced runs: spans cost one no-op context manager."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def record_run(self, run) -> None:
        pass


class Tracer:
    def __init__(self) -> None:
        # span rows: [name, start, end, parent, root, child_s, counted_s]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._lock = threading.Lock()
        self.counters: dict[tuple[int | None, str], list] = defaultdict(lambda: [0, 0.0])
        self.runs: dict[int | None, dict] = defaultdict(lambda: defaultdict(float))
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        root = self._stack[0] if self._stack else len(self.spans)
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, root, 0.0, 0.0])
        self._stack.append(idx)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            row = self.spans[idx]
            row[2] = end
            if parent is not None:
                self.spans[parent][5] += end - row[1]

    def _count(self, name: str, seconds: float) -> None:
        stack = self._stack
        current = stack[-1] if stack else None
        root = stack[0] if stack else None
        with self._lock:
            acc = self.counters[(root, name)]
            acc[0] += 1
            acc[1] += seconds
            if current is not None:
                self.spans[current][6] += seconds

    def record_run(self, run) -> None:
        """Chain facts of one `run_tula` result, booked to the current pass."""
        root = self._stack[0] if self._stack else None
        stats = self.runs[root]
        knot = run.transform.knot
        for ys, steps, diverged in zip(run.ys, run.steps, run.diverged):
            radii = np.linalg.norm(ys[1:], axis=1)
            stats["chain_steps"] += int(steps[-1])
            stats["iterates"] += radii.size
            stats["bulk_iterates"] += int(np.count_nonzero(radii < knot))
            stats["diverged"] += bool(diverged)

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, name: str, kind: str):
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                start = time.thread_time()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._count(name, time.thread_time() - start)
            wrapper = counted
        else:
            @functools.wraps(fn)
            def spanned(*args, **kwargs):
                with self.span(name):
                    result = fn(*args, **kwargs)
                if name == "sampler.run_tula":
                    self.record_run(result)
                return result
            wrapper = spanned
        wrapper.__benchmark_wrapped__ = True
        return wrapper

    def install(self) -> None:
        """Wrap every attribute of PATCHES.  One the package no longer has
        raises AttributeError: its layer would otherwise read as zero time."""
        for owner_path, attr, name, kind in PATCHES:
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, kind))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def per_pass(self) -> list[dict]:
        """One dict per root span: total and self seconds and span counts by
        name, counter calls and seconds, and chain facts."""
        passes: dict[int, dict] = {}
        for idx, (name, start, end, parent, root, child_s, counted_s) in enumerate(self.spans):
            if parent is None:
                passes[idx] = {
                    "wall_s": end - start,
                    "total_s": defaultdict(float),
                    "self_s": defaultdict(float),
                    "spans": defaultdict(int),
                    "calls": defaultdict(int),
                    "counted_s": defaultdict(float),
                    "run": dict(self.runs.get(idx, {})),
                }
            entry = passes[root]
            entry["total_s"][name] += end - start
            entry["self_s"][name] += (end - start) - child_s - counted_s
            entry["spans"][name] += 1
        for (root, name), (calls, seconds) in self.counters.items():
            if root in passes:
                passes[root]["calls"][name] += calls
                passes[root]["counted_s"][name] += seconds
        return list(passes.values())

    def span_rows(self) -> list[dict]:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p}
            for i, (n, s, e, p, _, _, _) in enumerate(self.spans)
        ]

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e, *_ in self.spans if n == name]
