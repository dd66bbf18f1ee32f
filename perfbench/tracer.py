"""Span tracing of gridres layers from outside the package.

The tracer replaces a layer's public function or method with a wrapper at
the place where its callers look the name up, records one span per call
(name, start, end, parent, request id) and aggregates per-name call counts
and self time: a span's duration minus the part covered by its child spans.

Spans are kept in memory up to ``max_spans`` and written out at the end;
the aggregates always cover every call. Benchmark phases open spans of
their own (``bench.*``); the layer spans directly under them measure how
much of the timed wall-clock the traced layers explain.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable


class LayerStats:
    __slots__ = ("calls", "timed_calls", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.timed_calls = 0  # calls inside a bench.* root
        self.self_s = 0.0


class Tracer:
    def __init__(self, max_spans: int = 100_000):
        self.request: str = "-"
        self.stats: dict[str, LayerStats] = {}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.max_spans = max_spans
        self.covered_s = 0.0  # layer time directly under bench spans
        self._stack: list[list] = []  # [name, start, child_s, id, is_bench, request]
        self._bench_depth = 0
        self._next_id = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ spans

    def _open(self, name: str, bench: bool) -> list:
        self._next_id += 1
        self._bench_depth += bench
        frame = [name, perf_counter(), 0.0, self._next_id, bench, self.request]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        name, start, child_s, span_id, bench, request = frame
        self._bench_depth -= bench
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if not bench:
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = LayerStats()
            st.calls += 1
            st.self_s += duration - child_s
            if self._bench_depth:
                st.timed_calls += 1
            if parent is not None and parent[4]:
                self.covered_s += duration
        if len(self.spans) < self.max_spans:
            self.spans.append((span_id, parent[3] if parent else 0, name,
                               start, end, request))
        else:
            self.spans_dropped += 1

    @property
    def enabled(self) -> bool:
        return bool(self._patches)

    @contextmanager
    def bench_span(self, name: str):
        """A benchmark phase; no-op while no layer is wrapped."""
        if not self.enabled:
            yield
            return
        frame = self._open(name, bench=True)
        try:
            yield
        finally:
            self._close(frame)

    # --------------------------------------------------------- patching

    def wrap(self, owner: Any, attr: str, name: str,
             namer: Callable[[tuple], str] | None = None,
             on_result: Callable[[tuple, Any], None] | None = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper until
        ``unwrap_all``.

        ``namer`` picks the span name from the call arguments; ``on_result``
        sees the arguments and the return value of every traced call.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = self._open(namer(args) if namer else name, bench=False)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(frame)
            if on_result is not None:
                on_result(args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        """CSV of the kept spans, times in microseconds from the first."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_us,end_us,request\n")
            for span_id, parent, name, start, end, request in self.spans:
                fh.write(f"{span_id},{parent},{name},{(start - t0) * 1e6:.1f},"
                         f"{(end - t0) * 1e6:.1f},{request}\n")
