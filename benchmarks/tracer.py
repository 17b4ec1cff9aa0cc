"""Span tracer for the benchmark's traced run.

The tracer wraps the module attributes that schedlab's callers look up
(``schedlab.metric.drive``, ``schedlab.checkers.reachable_states``,
``sync.World.clone``, ...), so every call into a layer records a span:
name, start, end, parent span and the id of the benchmark item it belongs
to.  Nothing under ``src/`` changes; the wrappers live only in the
benchmark's process.

Spans are kept in flat arrays in memory and written out once, at the end.
A span's self time is its duration minus the durations of its direct
children; calls are single-threaded and strictly nested, so children never
overlap.
"""

from __future__ import annotations

import array
import gzip
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        self.span_item = array.array("q")
        self.span_parent = array.array("q")
        self.span_name = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.item_id = -1
        self.enabled = True
        self._stack: list[list] = []  # [span id, time covered by children]

    def _open(self, name: str) -> list:
        idx = self._name_idx.get(name)
        if idx is None:
            idx = self._name_idx[name] = len(self.names)
            self.names.append(name)
        sid = len(self.span_name)
        self.span_name.append(idx)
        self.span_item.append(self.item_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        frame = [sid, 0.0]
        self._stack.append(frame)
        self.span_start.append(time.perf_counter())
        return frame

    def _close(self, name: str, frame: list) -> None:
        end = time.perf_counter()
        sid = frame[0]
        self.span_end[sid] = end
        self._stack.pop()
        dur = end - self.span_start[sid]
        if self._stack:
            self._stack[-1][1] += dur
        self.calls[name] += 1
        self.self_s[name] += dur - frame[1]

    @contextmanager
    def item(self, item_id: int):
        """Root span of one benchmark item; every span inside shares its id."""
        self.item_id = item_id
        frame = self._open("bench.item")
        try:
            yield
        finally:
            self._close("bench.item", frame)

    @contextmanager
    def paused(self):
        """Run harness work (gate checks, counters) without recording."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def wrap(self, name: str, fn, count=None):
        """A stand-in for `fn` that records a span per call.  `count`, if
        given, is called as count(counts, result, args) after the span
        closes, with recording paused."""

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame)
            if count is not None:
                with self.paused():
                    count(self.counts, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str) -> None:
        """Write every span as gzip'd TSV: item, span, parent, name, start,
        end (seconds on the process's perf_counter clock)."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("item\tspan\tparent\tname\tstart_s\tend_s\n")
            names = self.names
            for sid in range(len(self.span_name)):
                f.write(f"{self.span_item[sid]}\t{sid}\t{self.span_parent[sid]}\t"
                        f"{names[self.span_name[sid]]}\t{self.span_start[sid]:.9f}\t"
                        f"{self.span_end[sid]:.9f}\n")


def replace_everywhere(original, replacement) -> int:
    """Point every attribute of a loaded schedlab module that is `original`
    at `replacement`.  Returns the number of attributes replaced."""
    n = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or mod_name.split(".")[0] != "schedlab":
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                n += 1
    return n


def patch_function(module, attr: str, wrap) -> None:
    """Replace the function `module.attr` by wrap(original) wherever a
    schedlab module refers to it."""
    original = getattr(module, attr)
    if replace_everywhere(original, wrap(original)) == 0:
        raise RuntimeError(f"{module.__name__}.{attr} is referenced nowhere")


def patch_method(cls, attr: str, wrap) -> None:
    setattr(cls, attr, wrap(getattr(cls, attr)))
