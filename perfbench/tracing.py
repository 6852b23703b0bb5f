"""In-memory spans around the benchmark's calls into the program.

A span is (name, start, end, parent, extra): ``parent`` is the index of
the enclosing span or -1, ``extra`` holds counts read from the call's
result.  Spans are recorded only by wrappers this module installs on
the program's module attributes, so an untraced run executes the
program unchanged.
"""

from __future__ import annotations

import json
import time


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    def wrap(self, name: str, fn, counts=None):
        """``fn`` recording one span named ``name`` per call.

        ``counts(result)`` may return a dict stored with the span.
        """
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, None)
            if counts is not None:
                spans[idx] = (name, t0, t1, parent, counts(result))
            return result

        return traced

    def patch(self, module, attr: str, name: str, counts=None):
        """Route ``module.attr`` through a span until :meth:`restore`."""
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, counts))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def children(self) -> dict:
        """Map span index -> list of child span indices."""
        out: dict = {}
        for idx, (_, _, _, parent, _) in enumerate(self.spans):
            out.setdefault(parent, []).append(idx)
        return out

    def write(self, path):
        """All spans as JSON lines of [name, start, end, parent, extra]."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_time(spans, children, idx: int) -> float:
    """Span duration minus the time its direct children cover."""
    _, t0, t1, _, _ = spans[idx]
    inner = sum(spans[c][2] - spans[c][1] for c in children.get(idx, ()))
    return (t1 - t0) - inner
