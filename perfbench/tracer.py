"""Span tracer that rebinds the package's module attributes from outside.

``Tracer.install`` replaces a function such as ``occlusion_meter.geometry.clip``
with a wrapper that records a span (name, start, end, parent, operation id)
around every call, and rebinds every ``occlusion_meter`` module attribute
that refers to the same function object, so callers that imported the name
(``synthetic.visible_area``, ``ingest.validate_frame``) are traced too.
A target that no longer exists raises ``TracerError`` instead of silently
leaving a layer at zero. ``uninstall`` restores the originals.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Traced functions, by the module that defines them.
TARGETS = (
    ("ingest", "parse_detections"),
    ("ingest", "write_reports"),
    ("model", "validate_frame"),
    ("classifier", "classify_frame"),
    ("classifier", "group_parts"),
    ("classifier", "classify_bicycle"),
    ("synthetic", "generate_scene"),
    ("synthetic", "ground_truth"),
    ("synthetic", "simulate_detections"),
    ("synthetic", "estimator_error"),
    ("geometry", "visible_area"),
    ("geometry", "clip"),
    ("evaluation", "band_confusion"),
    ("cli", "main"),
)

OP = "op"


class TracerError(RuntimeError):
    """A traced name is missing from the package."""


class Tracer:
    def __init__(self) -> None:
        # (name, start_ns, end_ns, parent index or -1, op id)
        self.spans: list[tuple[str, int, int, int, object]] = []
        self.counters: Counter = Counter()
        self.observers: dict[str, object] = {}
        self._stack: list[int] = []
        self._op: object = None
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        counters = self.counters
        observers = self.observers

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # placeholder keeps parents before children
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                result = None
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op)
                counters[name + ".calls"] += 1
                observe = observers.get(name)
                if observe is not None:
                    observe(counters, args, kwargs, result, error)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; raise TracerError if one is missing."""
        for module_name, attr in targets:
            full = f"occlusion_meter.{module_name}"
            module = importlib.import_module(full)
            if not hasattr(module, attr):
                self.uninstall()
                raise TracerError(f"{full}.{attr} no longer exists; update perfbench/tracer.py TARGETS")
            original = getattr(module, attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not (loaded_name == "occlusion_meter" or loaded_name.startswith("occlusion_meter.")):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._saved.append((loaded, key, original))
                        setattr(loaded, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._saved):
            setattr(module, key, original)
        self._saved.clear()

    @contextmanager
    def op(self, op_id):
        """Root span of one workload operation."""
        self._op = op_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (OP, start, end, -1, op_id)
            self._op = None

    def self_times_ns(self) -> dict[str, int]:
        """Total self time per span name: duration minus direct children."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[i]
        return dict(totals)

    def merge(self, records: list[dict], op_id) -> None:
        """Append spans recorded by another process under a new op id."""
        offset = len(self.spans)
        for rec in records:
            parent = rec["parent"] + offset if rec["parent"] >= 0 else -1
            self.spans.append((rec["name"], rec["start_ns"], rec["end_ns"], parent, op_id))

    def records(self) -> list[dict]:
        return [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.records(), "counters": dict(self.counters)}, handle)
