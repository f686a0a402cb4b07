"""In-memory spans recorded around the benchmark's calls into gibbsrot.

A span is ``[name, start_ns, end_ns, parent, pass_id, rows]``: ``parent``
is the index of the enclosing span (-1 at top level) and ``rows`` the
number of rotations, vectors or matrices in the call's first argument.
The benchmark is single-threaded, so the spans open at any moment form
one stack and the children of a span never overlap each other.
"""

from __future__ import annotations

import contextlib
import json
import time

import numpy as np


class Tracer:
    """Records spans for wrapped callables; nothing else is instrumented."""

    def __init__(self):
        self.spans: list[list] = []
        self.pass_id = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, width: int):
        """``fn`` with a span named ``name`` around every call.

        ``width`` is the number of scalars per row of the first argument
        (3 for vectors, 4 for quaternions, 9 for matrices); 0 records no
        rows.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rows = np.size(args[0]) // width if width else 0
            span = [name, 0, 0, stack[-1] if stack else -1, self.pass_id, rows]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap module attributes for the duration of the block.

        ``targets`` holds ``(module, attribute, span_name, width)``; the
        original attributes are restored on exit, also after an error.
        """
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in targets]
        try:
            for (mod, attr, name, width), (_, _, orig) in zip(targets, saved):
                setattr(mod, attr, self.wrap(name, orig, width))
            yield
        finally:
            for mod, attr, orig in saved:
                setattr(mod, attr, orig)

    def summary(self) -> dict:
        """Per span name: calls, rows, busy_ns (total duration) and self_ns
        (duration minus the time covered by child spans)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _, rows) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "rows": 0, "busy_ns": 0, "self_ns": 0})
            agg["calls"] += 1
            agg["rows"] += rows
            agg["busy_ns"] += end - start
            agg["self_ns"] += end - start - child_ns[i]
        return out

    def write(self, path, **header) -> None:
        fields = ["name", "start_ns", "end_ns", "parent", "pass_id", "rows"]
        with open(path, "w") as fh:
            json.dump({**header, "fields": fields, "spans": self.spans}, fh)


def nesting_violations(spans) -> int:
    """Number of spans that do not lie within their parent span."""
    bad = 0
    for _, start, end, parent, _, _ in spans:
        if start > end:
            bad += 1
        elif parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            bad += not (p_start <= start and end <= p_end)
    return bad
