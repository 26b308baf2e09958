"""Outside-in layer tracer for the end-to-end benchmark.

The tracer wraps public callables of the program from the outside: it
records one span ``(layer, start, end, parent)`` per call, plus counts
taken at the same boundary, and keeps everything in memory until the
traced pass ends.  Nothing under ``src/`` knows it exists.

A callable is patched *by object identity* in every loaded ``repro``
module, because ``from x import f`` creates a second binding that
patching ``x.f`` alone would miss; function default arguments that hold
the original (``run_jobs(execute=execute_job)``) are patched too.
Methods are patched on each class that defines them, so a subclass
override gets its own wrapper.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable

__all__ = ["Tracer", "self_times", "aggregate"]

#: ``count(counts, args, kwargs, result)`` adds layer counts for one call.
CountFn = Callable[[dict, tuple, dict, Any], None]


class Tracer:
    """Span recorder plus the patch/unpatch machinery around it."""

    def __init__(self) -> None:
        #: ``[layer, start, end, parent_index]`` per call, in start order
        self.spans: list[list[Any]] = []
        #: ``counts[layer][name]`` summed over calls
        self.counts: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    # -- recording ------------------------------------------------------

    def wrap(self, layer: str, func: Callable, count: CountFn | None = None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [layer, clock(), 0.0, parent]
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            layer_counts = counts[layer]
            # a call nested inside the same layer (a fallback path) is one
            # call of that layer, not two
            if parent < 0 or spans[parent][0] != layer:
                layer_counts["calls"] += 1
            if count is not None:
                count(layer_counts, args, kwargs, result)
            return result

        traced.__bench_original__ = func
        return traced

    # -- patching -------------------------------------------------------

    def patch_function(
        self, module: str, name: str, layer: str, count: CountFn | None = None
    ) -> None:
        original = getattr(importlib.import_module(module), name)
        self._replace(original, self.wrap(layer, original, count))

    def patch_method(
        self, cls: type, name: str, layer: str, count: CountFn | None = None
    ) -> None:
        original = cls.__dict__[name]
        wrapper = self.wrap(layer, original, count)
        setattr(cls, name, wrapper)
        self._undo.append(lambda: setattr(cls, name, original))
        self._replace(original, wrapper)

    def _replace(self, original: Callable, wrapper: Callable) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append(
                        lambda m=module, a=attr: setattr(m, a, original)
                    )
                elif inspect.isfunction(value):
                    self._replace_defaults(value, original, wrapper)
                elif inspect.isclass(value) and value.__module__ == mod_name:
                    for member in list(vars(value).values()):
                        if inspect.isfunction(member):
                            self._replace_defaults(member, original, wrapper)

    def _replace_defaults(self, func: Callable, original: Callable, wrapper: Callable) -> None:
        defaults = func.__defaults__
        if defaults and any(d is original for d in defaults):
            func.__defaults__ = tuple(wrapper if d is original else d for d in defaults)
            self._undo.append(lambda: setattr(func, "__defaults__", defaults))
        kwdefaults = func.__kwdefaults__
        if kwdefaults and any(d is original for d in kwdefaults.values()):
            func.__kwdefaults__ = {
                k: wrapper if d is original else d for k, d in kwdefaults.items()
            }
            self._undo.append(lambda: setattr(func, "__kwdefaults__", kwdefaults))

    def uninstall(self) -> None:
        """Restore every binding, newest patch first."""
        while self._undo:
            self._undo.pop()()

    # -- output ---------------------------------------------------------

    def chrome_trace(self, path: Path, origin: float) -> None:
        """Write the spans as Chrome trace-event JSON (one lane)."""
        events = [
            {
                "name": layer,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
            }
            for layer, start, end, _parent in self.spans
        ]
        path.write_text(json.dumps({"traceEvents": events}))


def self_times(spans: Iterable[list[Any]]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so a parent's children never overlap and
    the time they cover is the sum of their durations.
    """
    spans = list(spans)
    covered = [0.0] * len(spans)
    for _layer, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_l, start, end, _p) in enumerate(spans)]


def aggregate(spans: list[list[Any]], under: str | None = None) -> dict[str, dict[str, float]]:
    """Per layer: summed self time and, when ``under`` names a layer, the
    inclusive time of this layer's outermost spans that run beneath it."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, self_s in zip(spans, self_times(spans)):
        out[span[0]]["self_s"] += self_s
    if under is not None:
        for span in spans:
            layer, start, end, parent = span
            if parent >= 0 and spans[parent][0] == layer:
                continue  # counted through its outermost same-layer span
            out[layer]["inclusive_s"] += end - start
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != under:
                ancestor = spans[ancestor][3]
            if ancestor >= 0:
                out[layer]["under_s"] += end - start
    return out
