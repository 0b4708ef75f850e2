"""In-memory span tracing of ``privlp`` from outside the package.

A traced run wraps each function in TRACED in every ``privlp`` module
namespace that binds it: ``experiment`` and ``cli`` import functions by name,
``mechanism`` imports ``row_stream`` by name, and ``validate`` looks up
``phase1_feasible`` at call time, so patching only the defining module would
miss calls. Spans (name, start, end, parent, op id) stay in memory until the
run ends. Per-layer numbers are derived from them afterwards.
"""
from __future__ import annotations

import functools
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

# (module, function) pairs traced; the span name is "module.function".
TRACED = (
    ("cli", "main"),
    ("experiment", "run_sweep"),
    ("problem", "load_problem"),
    ("problem", "validate"),
    ("mechanism", "privatize_matrix"),
    ("seeds", "row_stream"),
    ("simplex", "solve_lp"),
    ("simplex", "phase1_feasible"),
    ("simplex", "max_norm_point"),
    ("simplex", "enumerate_vertices"),
    ("accuracy", "cost_bound"),
    ("accuracy", "hoffman_constant"),
    ("accuracy", "xi_term"),
    ("cmdp", "build_gridworld"),
    ("cmdp", "synthesize_policy"),
    ("cmdp", "value_function"),
)

# The benchmark's own span around one operation (a sweep or a request).
OP_SPAN = "op"

NAME, START, END, PARENT, OP = range(5)


class NullTracer:
    """Stands in for :class:`Tracer` in untraced runs."""

    def begin_op(self) -> int:
        return -1

    def end(self, index: int) -> None:
        pass


class Tracer:
    """Records nested spans and counters while installed.

    Spans are kept column-wise in a few flat lists rather than one object
    per span, so the garbage collector's cost does not grow with the trace.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple] = []

    def begin_op(self) -> int:
        self._op += 1
        return self._begin(OP_SPAN)

    def end(self, index: int) -> None:
        self.ends[index] = perf_counter_ns()
        self._stack.pop()

    def _begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self._op)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(perf_counter_ns())
        return index

    @property
    def spans(self) -> list[tuple]:
        """(name, start_ns, end_ns, parent index, op id) per span, in start order."""
        return list(zip(self.names, self.starts, self.ends, self.parents, self.ops))

    def _wrap(self, name, fn, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if observe is not None:
                observe(self.counters, args, result)
            return result
        return traced

    def install(self, modules, observers: dict | None = None) -> None:
        """Wrap every TRACED function wherever a ``privlp`` module binds it.

        ``modules`` maps short module names to the imported modules;
        ``observers`` maps span names to ``f(counters, args, result)`` hooks
        that run after the span closes.
        """
        observers = observers or {}
        namespaces = [mod for name, mod in sys.modules.items()
                      if name == "privlp" or name.startswith("privlp.")]
        for mod_name, fn_name in TRACED:
            original = getattr(modules[mod_name], fn_name)
            span_name = f"{mod_name}.{fn_name}"
            wrapped = self._wrap(span_name, original, observers.get(span_name))
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapped)
                        self._restore.append((namespace, attr, original))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._restore):
            setattr(namespace, attr, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        """Write the spans as CSV: index, op id, parent index, name, start and end in ns."""
        with open(path, "w") as out:
            out.write("index,op,parent,name,start_ns,end_ns\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(f"{index},{op},{parent},{name},{start},{end}\n")


def covered_ns(intervals, start: int, end: int) -> int:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [span[END] - span[START] - covered_ns(children.get(i, ()), span[START], span[END])
            for i, span in enumerate(spans)]


def summarize(spans) -> dict[str, dict]:
    """Per span name: call count, total self time in s, median duration in us."""
    selfs = self_times_ns(spans)
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    durations = defaultdict(list)
    for span, own in zip(spans, selfs):
        calls[span[NAME]] += 1
        self_ns[span[NAME]] += own
        durations[span[NAME]].append(span[END] - span[START])
    return {name: {"calls": calls[name], "self_s": self_ns[name] / 1e9,
                   "p50_us": statistics.median(durations[name]) / 1e3}
            for name in calls}
