"""In-memory span tracer that wraps mtss's public calls from outside.

A span records (name, start, end, parent, work): ``parent`` is the index of
the enclosing span or -1, and ``work`` is an optional count the span did,
such as LSTM steps or bytes written. Spans stay in a list until the run ends.

Functions are wrapped in every ``mtss`` module that holds them, so a name
brought in with ``from ... import`` is traced where it is used as well as
where it is defined. Methods are wrapped on the class that defines them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, work=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, 0])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if work is not None:
                spans[index][4] = work(args, result)
            return result

        return traced

    def patch_function(self, module, attr: str, name: str, work=None) -> None:
        """Wrap ``module.attr`` in every loaded mtss module that refers to it."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, work)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mtss" or mod_name.startswith("mtss.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, traced)

    def patch_method(self, cls, attr: str, name: str, work=None) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, work))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- reading the spans -----------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total (inclusive) seconds, self seconds, work.

        Self time is the span's duration minus the durations of its direct
        children; spans nest on one thread, so the children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
        for i, (name, start, end, _, work) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
            row["work"] += work
        return dict(table)

    def under(self, name: str, parent_name: str) -> tuple[int, float, int]:
        """(calls, total seconds, work) of ``name`` spans whose parent is ``parent_name``."""
        calls, seconds, work = 0, 0.0, 0
        for span_name, start, end, parent, span_work in self.spans:
            if span_name == name and parent >= 0 and self.spans[parent][0] == parent_name:
                calls += 1
                seconds += end - start
                work += span_work
        return calls, seconds, work

    def write(self, path: Path, extra: dict) -> None:
        """Write every span plus the per-name summary as one JSON document."""
        origin = self.spans[0][1] if self.spans else 0.0
        doc = {
            **extra,
            "columns": ["name", "start_s", "end_s", "parent", "work"],
            "spans": [[n, s - origin, e - origin, p, w] for n, s, e, p, w in self.spans],
            "summary": self.summary(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")
