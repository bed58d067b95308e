"""Spans and call counters installed around toruslab's module boundaries.

Spans are recorded from the benchmark's side: the functions that
``toruslab.cli`` imports from ``analysis``, ``integrators``, ``svgplot`` and
``dsl``, and those that ``toruslab.analysis`` imports from ``integrators``
and ``phase``, are replaced in the importing module's namespace by timing
wrappers for the duration of a traced pass. ``analysis.poincare_map`` is
wrapped too, so that return-map calls can be counted. ``System.field`` and
``System.jacobian`` are called far too often for spans; they get a call
counter and summed time instead. Nothing is installed outside ``installed``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

MODULES = ("cli", "analysis", "integrators", "systems", "phase", "dsl",
           "svgplot")
EVERY_WORKLOAD = MODULES[:5]  # the modules that every workload calls into

# importing module -> modules whose functions it binds get spans
_BOUNDARIES = {
    "cli": ("analysis", "integrators", "svgplot", "dsl"),
    "analysis": ("integrators", "phase"),
}


@dataclass
class Span:
    name: str
    module: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a root
    op: int
    end: float = 0.0
    child_s: float = 0.0  # covered by child spans and counted calls


@dataclass
class Tracer:
    """In-memory spans plus work counters for one or more traced passes."""

    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    counted_s: Counter = field(default_factory=Counter)
    op: int = 0
    _stack: list[int] = field(default_factory=list)

    def _open(self, name: str, module: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, module, perf_counter(), parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.end - span.start

    def span(self, module: str, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, module)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            self.counts[f"{module}.{name}.calls"] += 1
            if on_result is not None:
                on_result(self.counts, out)
            return out
        return wrapper

    def counted(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(obj, states, *args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(obj, states, *args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.counts[f"{key}.calls"] += 1
                self.counts[f"{key}.rows"] += _rows(states)
                self.counted_s[key] += dt
                if self._stack:
                    self.spans[self._stack[-1]].child_s += dt
        return wrapper

    def root(self, fn):
        """Wrap ``cli.main`` so that each call is one operation's root span."""
        def wrapper(argv):
            self.op += 1
            span = self._open("main", "cli")
            try:
                return fn(argv)
            finally:
                self._close(span)
        return wrapper

    def self_seconds(self) -> dict[str, float]:
        """Each module's time not covered by a child span or counted call."""
        out = dict.fromkeys(MODULES, 0.0)
        for s in self.spans:
            out[s.module] += (s.end - s.start) - s.child_s
        out["systems"] += sum(self.counted_s.values())
        return out


def _rows(states) -> int:
    shape = np.shape(states)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _count_result(counts: Counter, out) -> None:
    # work read from the public return values of the integrators and survey
    name = type(out).__name__
    if name == "Trajectory":
        counts["work.steps"] += out.n_steps
        counts["work.rejected_steps"] += out.n_rejected
    elif name == "VariationalResult":
        counts["work.steps"] += out.n_steps
    elif name == "BatchResult":
        counts["work.batch_row_steps"] += out.n_steps * len(out.final)
        counts["work.escaped_rows"] += int(out.escaped.sum())
    elif name == "SurveyReport":
        counts["work.escaped_rows"] += int(out.escaped.sum())


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install spans and counters on the imported toruslab; undo on exit."""
    mods = {m: sys.modules[f"toruslab.{m}"] for m in MODULES}
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        for importer, sources in _BOUNDARIES.items():
            ns = mods[importer]
            for attr, obj in list(vars(ns).items()):
                if not inspect.isfunction(obj):
                    continue
                source = obj.__module__.rpartition(".")[2]
                if source in sources:
                    patch(ns, attr, tracer.span(source, attr, obj,
                                                _count_result))
        patch(mods["analysis"], "poincare_map",
              tracer.span("analysis", "poincare_map",
                          mods["analysis"].poincare_map))
        system = mods["systems"].System
        patch(system, "field", tracer.counted("systems.field", system.field))
        patch(system, "jacobian",
              tracer.counted("systems.jacobian", system.jacobian))
        patch(mods["cli"], "main", tracer.root(mods["cli"].main))
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
