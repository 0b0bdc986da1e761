"""Span tracing: monotonic timing of named operations, JSONL sink.

A *span* covers one timed operation — a sweep, one job, a cache probe,
a corpus ingest. Usage::

    with span("sweep/job", engine="cycle", workload="li") as sp:
        ...
        if sp is not None:
            sp.set(outcome="hit")      # attach attrs mid-flight

When telemetry is off (:mod:`repro.telemetry.state`) ``span`` yields
``None`` and costs one function call; when on, it costs two
``perf_counter`` reads and one deque append. Spans land in the
process-global :data:`recorder` — a bounded in-memory ring (capacity
``REPRO_SPAN_BUFFER``, default 4096), mirrored line-by-line to a JSONL
file when ``REPRO_SPAN_LOG=<path>`` is set (or a sink is configured
programmatically). Span names form a small ``area/operation`` taxonomy
documented in docs/observability.md.

Timing is monotonic (``time.perf_counter``); span ``start_s`` is the
offset from the recorder's epoch, so spans from one process order
correctly even across wall-clock adjustments. For cross-process trace
merging the recorder also pins a wall-clock epoch captured at the same
instant, so ``to_json_dict`` can emit an absolute ``ts`` comparable
across machines (to NTP accuracy).

When a trace context is active (:mod:`repro.obs.context`), every span
additionally carries ``trace_id``/``span_id``/``parent_id`` and opens
a child context for its duration, so nested spans — on this thread or
any process the context is propagated to — form one coherent tree.
"""

from __future__ import annotations

import collections
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Deque, Dict, Iterator, List, Optional, TextIO

from repro.obs import context as tracectx
from repro.telemetry import state

ENV_SINK = "REPRO_SPAN_LOG"
ENV_CAPACITY = "REPRO_SPAN_BUFFER"

#: In-memory ring capacity; old spans fall off, the JSONL sink keeps all.
DEFAULT_CAPACITY = 4096

#: Floor for ``REPRO_SPAN_BUFFER`` — a ring smaller than this cannot
#: hold even one smoke sweep's spans and breaks live progress.
MIN_CAPACITY = 16


def _capacity_from_env() -> int:
    raw = os.environ.get(ENV_CAPACITY, "").strip()
    if not raw:
        return DEFAULT_CAPACITY
    try:
        return max(MIN_CAPACITY, int(raw))
    except ValueError:
        return DEFAULT_CAPACITY


class Span:
    """One finished (or in-flight) timed operation."""

    __slots__ = ("name", "attrs", "start_s", "duration_ms",
                 "trace_id", "span_id", "parent_id", "tid")

    def __init__(self, name: str, attrs: Dict[str, object]) -> None:
        self.name = name
        self.attrs = attrs
        self.start_s: float = 0.0
        self.duration_ms: float = 0.0
        self.trace_id: Optional[str] = None
        self.span_id: Optional[str] = None
        self.parent_id: Optional[str] = None
        self.tid: int = threading.get_ident()

    def set(self, **attrs: object) -> None:
        """Attach attributes while the span is open."""
        self.attrs.update(attrs)

    def to_json_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "start_s": round(self.start_s, 6),
            "ms": round(self.duration_ms, 3),
            "pid": os.getpid(),
            "attrs": self.attrs,
        }
        if self.trace_id:
            payload["trace_id"] = self.trace_id
            payload["span_id"] = self.span_id
            if self.parent_id:
                payload["parent_id"] = self.parent_id
            payload["tid"] = self.tid
            # Absolute wall-clock start: lets traces merged from many
            # processes share one timeline (perf_counter epochs don't).
            payload["ts"] = round(recorder.epoch_wall + self.start_s, 6)
        return payload

    def __repr__(self) -> str:
        return f"Span({self.name}, {self.duration_ms:.3f}ms, {self.attrs})"


class SpanRecorder:
    """Bounded in-memory span ring with an optional JSONL mirror."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is None:
            capacity = _capacity_from_env()
        self._ring: Deque[Span] = collections.deque(maxlen=capacity)
        # Captured back to back: epoch_wall + (perf_counter() - epoch)
        # approximates wall time for any span this process records.
        self._epoch = time.perf_counter()
        self._epoch_wall = time.time()
        self._sink_path: Optional[str] = None
        self._sink: Optional[TextIO] = None
        self._subscribers: Dict[int, Callable[[Span], None]] = {}
        self._next_token = 1

    @property
    def epoch(self) -> float:
        return self._epoch

    @property
    def epoch_wall(self) -> float:
        return self._epoch_wall

    @property
    def capacity(self) -> int:
        return self._ring.maxlen or DEFAULT_CAPACITY

    def configure_sink(self, path: Optional[str]) -> None:
        """Mirror spans to ``path`` as JSONL; ``None`` restores the
        environment default (``REPRO_SPAN_LOG``)."""
        if self._sink is not None:
            try:
                self._sink.close()
            except OSError:  # pragma: no cover - close of a dead handle
                pass
        self._sink = None
        self._sink_path = path

    def _sink_handle(self) -> Optional[TextIO]:
        if self._sink is not None:
            return self._sink
        path = self._sink_path or os.environ.get(ENV_SINK)
        if not path:
            return None
        try:
            self._sink = open(path, "a")
        except OSError:
            return None  # an unwritable sink degrades to in-memory only
        return self._sink

    def subscribe(self, callback: Callable[[Span], None]) -> int:
        """Call ``callback`` with every span as it is recorded.

        The callback runs synchronously in the recording thread (the
        process-pool trace path uses it to collect a job's spans).
        Returns a token for :meth:`unsubscribe`. A callback that raises
        is dropped silently — collection must never fail a sweep.
        """
        token = self._next_token
        self._next_token += 1
        self._subscribers[token] = callback
        return token

    def unsubscribe(self, token: int) -> None:
        self._subscribers.pop(token, None)

    def record(self, span: Span) -> None:
        self._ring.append(span)
        if self._subscribers:
            for token, callback in list(self._subscribers.items()):
                try:
                    callback(span)
                except Exception:
                    self._subscribers.pop(token, None)
        sink = self._sink_handle()
        if sink is not None:
            try:
                # One write call per line: concurrent appenders (pool
                # workers inherit the sink path) never interleave bytes
                # mid-line on POSIX append-mode files.
                sink.write(json.dumps(span.to_json_dict(),
                                      default=str) + "\n")
                sink.flush()
            except (OSError, ValueError):
                pass

    def subscriber_count(self) -> int:
        return len(self._subscribers)

    def records(self, name: Optional[str] = None) -> List[Span]:
        """Spans recorded so far (newest last), optionally by name."""
        if name is None:
            return list(self._ring)
        return [span for span in self._ring if span.name == name]

    def clear(self) -> None:
        self._ring.clear()


#: The process-global recorder every ``span()`` lands in.
recorder = SpanRecorder()


@contextmanager
def span(name: str, **attrs: object) -> Iterator[Optional[Span]]:
    """Time a named operation; yields the :class:`Span` or ``None``.

    The span is recorded when the block exits — including on exceptions,
    so failed operations still show their duration. Under an active
    trace context the span is assigned its identity up front and opens
    a child context, so anything started inside (nested spans, jobs
    shipped to another process with the serialised context) parents
    correctly.
    """
    if not state.enabled():
        yield None
        return
    record = Span(name, dict(attrs))
    ctx = tracectx.current()
    token: Optional[int] = None
    if ctx is not None:
        record.trace_id = ctx.trace_id
        record.span_id = tracectx.new_span_id()
        record.parent_id = ctx.span_id or None
        token = tracectx.push(
            tracectx.TraceContext(ctx.trace_id, record.span_id))
    started = time.perf_counter()
    try:
        yield record
    finally:
        ended = time.perf_counter()
        if token is not None:
            tracectx.pop(token)
        record.start_s = started - recorder.epoch
        record.duration_ms = (ended - started) * 1000.0
        recorder.record(record)
