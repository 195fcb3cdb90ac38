"""Spans and counts around the package's public functions, applied from outside.

`install` wraps every public plain function defined in the traced modules and
rebinds the wrapper wherever the package binds the original (``from .x import
f`` copies in other modules, the package namespace, module globals reached by
internal calls).  `Tracer.restore` puts every original back.  Generator
functions (``feasibility.scan``) are left unwrapped: their span would cover
the consumer's work too.

Spans stay in memory as ``(item, span, parent, name, start_s, end_s, error)``
tuples and are written out once, after the pass.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "cage_spectra"

#: Traced modules and the label used in metric names (a metric name may not
#: start with "_").
LAYERS = {
    "cli": "cli",
    "feasibility": "feasibility",
    "polynomials": "polynomials",
    "intervals": "intervals",
    "intersection": "intersection",
    "graphs": "graphs",
    "_intmat": "intmat",
}


def _roots(counters, args, kwargs, result):
    counters["feasibility.roots"] += len(result.roots)


def _g6_bytes(counters, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    counters["graphs.parse_graph6.bytes"] += len(text.strip())


def _madds(counters, args, kwargs, result):
    a, b = args[:2]
    counters["intmat.matmul.madds"] += len(a) * len(b) * len(b[0])


#: Counts taken from a call's arguments or result, after it returns.
HOOKS = {
    "feasibility.spectral_feasibility": _roots,
    "graphs.parse_graph6": _g6_bytes,
    "intmat.matmul": _madds,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.item = -1
        self.wrapped: set[str] = set()
        self._stack: list[list] = []  # [span id, child seconds] of open spans
        self._bindings: list[tuple] = []

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)  # reserve the id so children number after it
            frame = [span_id, 0.0]
            stack.append(frame)
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                self.errors[name] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                spans[span_id] = (self.item, span_id, parent, name, start, end, error)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every traced module at every binding
        site in the package."""
        originals = {}
        for module_name, label in LAYERS.items():
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                name = f"{label}.{attr}"
                originals[id(obj)] = (obj, self.wrap(name, obj))
                self.wrapped.add(name)
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._bindings.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def restore(self) -> None:
        for module, attr, obj in reversed(self._bindings):
            setattr(module, attr, obj)
        self._bindings.clear()

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
