"""Outside-in spans around dosekit's public functions.

``Tracer.installed()`` rebinds every public module-level function of the traced
layers, in every dosekit module namespace that refers to it. Calls that dosekit
makes internally (``generate_plans`` -> ``build_influence_matrix``) therefore
get spans with a parent, and each span's self time is its duration minus the
time its direct children cover. Spans are kept in memory; the caller reads them
when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import tracemalloc
from dataclasses import dataclass
from time import perf_counter

import dosekit.evaluation
import dosekit.phantom
import dosekit.planner
import dosekit.volume

# Module name == layer name. dosekit.seeds and dosekit.errors do no measurable work.
LAYERS = {
    "phantom": dosekit.phantom,
    "planner": dosekit.planner,
    "volume": dosekit.volume,
    "evaluation": dosekit.evaluation,
}
# Spans whose tracemalloc peak is recorded (the influence builder's memory wall).
MEMORY_SPANS = frozenset({"planner.build_influence_matrix"})


@dataclass
class Span:
    name: str
    job: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    peak_bytes: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def public_functions(module) -> dict[str, object]:
    return {
        name: fn
        for name, fn in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(fn)
        and fn.__module__ == module.__name__
    }


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = ""
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, job: str):
        """A span opened by the benchmark itself, e.g. around one case's job."""
        self.job = job
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextlib.contextmanager
    def installed(self):
        """Rebind the traced layers' public functions for the duration of the block."""
        wrappers = {}
        for layer, module in LAYERS.items():
            for name, fn in public_functions(module).items():
                wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        rebound = []
        for module in [m for n, m in sys.modules.items() if n == "dosekit" or n.startswith("dosekit.")]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    rebound.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in rebound:
                setattr(module, attr, value)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name=name, job=self.job, parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index].start = perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        track_memory = name in MEMORY_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = track_memory and not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
                if started:
                    self.spans[index].peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()

        return wrapper

    def self_times(self) -> list[float]:
        """Self time of each span, aligned with ``spans``."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return [span.duration - child for span, child in zip(self.spans, covered)]

    def peaks(self, name: str) -> list[int]:
        return [s.peak_bytes for s in self.spans if s.name == name and s.peak_bytes is not None]
