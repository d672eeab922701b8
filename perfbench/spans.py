"""Outside-in span tracing for the benchmark's traced runs.

Spans are recorded by temporarily replacing public functions of the
``repro`` layers with timing wrappers installed from this file; nothing in
``src/`` knows it is being traced.  A span is ``[name, start, end, parent,
op, extra]``: ``parent`` is the index of the enclosing span (-1 at the top
of an op), ``op`` the benchmark op it ran in, and ``extra`` an optional
payload captured after the call (token counts, request ids).  Spans stay
in memory until the run ends.

A span's *self time* is its duration minus the durations of its direct
children.  Because every wrapped call nests inside its caller's span, the
self times of one op's spans plus the op's untraced residual add up to the
op's wall time exactly; :meth:`SpanTracer.layer_times` checks that nesting
holds instead of assuming it.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_MISSING = object()

# Slack for float rounding when checking that children fit their parent.
NESTING_TOLERANCE_S = 1e-6


class SpanTracer:
    """Records spans around wrapped callables while installed."""

    def __init__(self):
        self.spans: List[list] = []
        self.op = -1
        self.gc_pause_s: Dict[int, float] = defaultdict(float)
        self.gc_gen2: Dict[int, int] = defaultdict(int)
        self._stack: List[int] = []
        self._points: List[Tuple[object, str, Callable]] = []
        self._saved: List[Tuple[object, str, object]] = []
        self._gc_start: Optional[float] = None

    # ------------------------------------------------------------------ #
    # trace points
    # ------------------------------------------------------------------ #
    def call(self, owner, attr: str, name: str,
             extra: Optional[Callable] = None) -> None:
        """Trace every call of ``owner.attr`` as a span called ``name``.

        ``extra(args, result)`` runs after the span closes and its return
        value is stored on the span; keep it cheap, because its time lands
        in the parent span.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(fn):
            def traced(*args, **kwargs):
                index = len(spans)
                record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                          self.op, None]
                spans.append(record)
                stack.append(index)
                record[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = clock()
                    stack.pop()
                if extra is not None:
                    record[5] = extra(args, result)
                return result
            return traced

        self._points.append((owner, attr, make))

    def iterator(self, owner, attr: str, name: str) -> None:
        """Trace each ``next()`` on the iterator ``owner.attr`` returns."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(fn):
            def traced(*args, **kwargs):
                inner = iter(fn(*args, **kwargs))

                def items():
                    while True:
                        index = len(spans)
                        record = [name, 0.0, 0.0,
                                  stack[-1] if stack else -1, self.op, None]
                        spans.append(record)
                        stack.append(index)
                        record[1] = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            record[2] = clock()
                            stack.pop()
                        yield item
                return items()
            return traced

        self._points.append((owner, attr, make))

    # ------------------------------------------------------------------ #
    # install / remove
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Swap every trace point's wrapper in and start counting GC."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, make in self._points:
            self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, make(getattr(owner, attr)))
        gc.callbacks.append(self._on_gc)

    def remove(self) -> None:
        """Restore every wrapped attribute and stop counting GC."""
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()
        self._gc_start = None

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pause_s[self.op] += time.perf_counter() - self._gc_start
            self._gc_start = None
            if info.get("generation") == 2:
                self.gc_gen2[self.op] += 1

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def self_times(self) -> List[float]:
        """Self time of every span, in span order (seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, extra in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (name, start, end, parent, op, extra)
                in enumerate(self.spans)]

    def layer_times(self, op_windows: Dict[int, Tuple[float, float]]
                    ) -> Dict[int, Dict[str, float]]:
        """Per-op self seconds by span name, plus ``untraced``.

        ``op_windows`` maps each traced op to its measured ``(start,
        end)``.  Raises ``ValueError`` when a span escapes its parent or
        its op, since the self times would then no longer tile the op.
        """
        totals: Dict[int, Dict[str, float]] = {
            op: defaultdict(float) for op in op_windows}
        for index, (span, self_s) in enumerate(zip(self.spans,
                                                   self.self_times())):
            name, start, end, parent, op, extra = span
            if op not in op_windows:
                raise ValueError(f"span {name!r} ran outside a traced op")
            lo, hi = op_windows[op]
            if self_s < -NESTING_TOLERANCE_S or \
                    start < lo - NESTING_TOLERANCE_S or \
                    end > hi + NESTING_TOLERANCE_S:
                raise ValueError(f"span {index} ({name}) does not nest "
                                 f"inside its parent and op {op}")
            totals[op][name] += self_s
        for op, (lo, hi) in op_windows.items():
            totals[op]["untraced"] = (hi - lo) - sum(totals[op].values())
        return totals

    def dump(self) -> dict:
        """The spans as a JSON-ready document (times in seconds)."""
        return {"fields": ["name", "start", "end", "parent", "op", "extra"],
                "spans": self.spans}
