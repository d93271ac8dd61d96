"""In-memory span recording for the traced run.

A span is ``(id, parent, trace, name, start_ns, end_ns)``.  Spans nest per
thread: a span opened while another is open on the same thread becomes its
child.  Spans of one batch share a trace id (:meth:`Tracer.new_trace`).
Nothing is written until the run ends (:meth:`Tracer.dump`).

A layer's self time is its span's duration minus the time its child spans
cover (:meth:`Tracer.self_times`).  Children on one thread run one after
another inside their parent, so that covered time is the sum of their
durations.

:func:`patched` wraps public methods of the program's classes for the
length of a ``with`` block, so every call records a span; the program's
sources are not touched.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence, Tuple

Span = Tuple[int, int, int, str, int, int]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Tuple[int, str, int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_trace(self) -> None:
        """Start the next batch on this thread.

        Trace ids count batches per thread, so the thread that produces
        batches and the thread that consumes them number the same batch
        alike while none is dropped.
        """
        self._local.trace = getattr(self._local, "trace", 0) + 1

    def begin(self, name: str) -> None:
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        stack.append((next(self._ids), name, parent, time.perf_counter_ns()))

    def end(self) -> None:
        end = time.perf_counter_ns()
        span_id, name, parent, start = self._stack().pop()
        trace = getattr(self._local, "trace", 0)
        self.spans.append((span_id, parent, trace, name, start, end))

    def self_times(self) -> Dict[str, Dict[str, int]]:
        """Per span name: ``{"count", "total_ns", "self_ns"}``."""
        covered: Dict[int, int] = {}
        for _id, parent, _trace, _name, start, end in self.spans:
            if parent:
                covered[parent] = covered.get(parent, 0) + (end - start)
        out: Dict[str, Dict[str, int]] = {}
        for span_id, _parent, _trace, name, start, end in self.spans:
            row = out.setdefault(name, {"count": 0, "total_ns": 0, "self_ns": 0})
            row["count"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += (end - start) - covered.get(span_id, 0)
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines (one span per line)."""
        keys = ("id", "parent", "trace", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))))
                handle.write("\n")


def spanned(tracer: Tracer, original: Any, name: str) -> Any:
    """``original`` wrapped to record a ``name`` span around every call."""
    begin = tracer.begin
    end = tracer.end

    def traced(*args: Any, **kwargs: Any) -> Any:
        begin(name)
        try:
            return original(*args, **kwargs)
        finally:
            end()

    traced.__wrapped__ = original  # type: ignore[attr-defined]
    return traced


@contextlib.contextmanager
def patched(tracer: Tracer, targets: Sequence[Tuple[Any, str, str]]) -> Iterator[None]:
    """Record a span around every call of ``cls.method`` inside the block.

    ``targets`` holds ``(class, method name, span name)``; the wrapper is a
    plain function, so instances bind it as they bound the method.
    """
    saved = []
    try:
        for cls, attr, name in targets:
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, spanned(tracer, original, name))
        yield
    finally:
        for cls, attr, original in reversed(saved):
            setattr(cls, attr, original)


class EngineProbe:
    """Stands in for a batch engine and records an ``engine`` span per batch.

    ``SwitchNode.ingest_batch`` and the service only call ``process`` (and
    read ``backend``), so the probe forwards those to the real engine.
    """

    def __init__(self, tracer: Tracer, engine: Any):
        self._tracer = tracer
        self.engine = engine
        self.backend = engine.backend

    def process(self, batch: Any) -> Any:
        self._tracer.begin("engine")
        try:
            return self.engine.process(batch)
        finally:
            self._tracer.end()
