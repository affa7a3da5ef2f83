"""In-memory tracing used by the traced run (``--trace 1``).

Two recorders, both living in the benchmark's own files so the program
under test carries no tracing code:

* :class:`Spans` — one span per layer call made from the benchmark
  (name, start, end, parent), written out as JSON when the run ends.
* :class:`KernelTrace` — while active, replaces kernel function names in
  the modules that look them up with wrappers that add
  ``time.thread_time`` and a call count per layer. A layer's self time
  is its time minus the time of the wrapped layers it called.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Spans:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": time.time(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            self._open.pop()
            rec["end"] = time.time()

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Add spans recorded by another :class:`Spans` (in the Ray driver)
        under span ``parent`` of this one."""
        base = len(self.spans)
        for s in spans:
            up = parent if s["parent"] is None else base + s["parent"]
            self.spans.append(dict(s, id=base + s["id"], parent=up))


class KernelTrace:
    def __init__(self):
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list[float]] = []
        self._patches: list[tuple] = []

    def timed(self, name: str, fn, count=None):
        """``fn`` wrapped to charge its CPU time to layer ``name``;
        ``count(result)`` (optional) adds to ``self.counts[name]``."""

        def wrapper(*args, **kwargs):
            frame = [0.0]  # CPU of wrapped callees
            self._stack.append(frame)
            t0 = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.thread_time() - t0
                self._stack.pop()
                self.total[name] += dt
                self.self_time[name] += dt - frame[0]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][0] += dt
            if count is not None:
                self.counts[name] += count(result)
            return result

        return wrapper

    def patch(self, module, attr: str, name: str, count=None) -> None:
        """Time ``module.attr`` as layer ``name`` while active; a module
        that no longer has ``attr`` leaves the layer empty."""
        orig = getattr(module, attr, None)
        if orig is not None:
            self._patches.append((module, attr, orig, self.timed(name, orig, count)))

    @contextmanager
    def active(self):
        """The patched names hold the timing wrappers inside this block."""
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, orig, _ in reversed(self._patches):
                setattr(module, attr, orig)
