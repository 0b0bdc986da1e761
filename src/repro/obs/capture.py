"""Sweep tracing: ``span()`` records straight into the active capture.

A *span* times one named operation inside a sweep — the sweep itself,
one job, a cache probe, a shard replay. Usage::

    with span("sweep/job", engine="cycle", workload="li") as sp:
        ...
        if sp is not None:
            sp.set(outcome="hit")      # attach attrs mid-flight

``SweepExecutor.run`` opens a :class:`TraceCapture` around each
sweep it records in a run ledger. Creating a capture makes it the
active one on its thread, and the capture owns the stack of open span
ids: every ``span()`` on that thread appends one dict to
``capture.spans``, parented under the innermost open span. Outside a
capture ``span()`` yields ``None`` and records nothing, at the cost of
one thread-local read.

A pool worker runs its job under a capture with no store, joined to
the submitter's trace (:func:`repro.core.executor._run_job_traced`);
the worker returns ``capture.spans`` with the result and the submitter
extends its own list with them. With ``REPRO_PROFILE=1`` the
submitter's capture also runs the sampling profiler while the sweep
runs. On close it writes the merged trace, and any profile, to its
:class:`TraceStore`.

Timing is monotonic (``time.perf_counter``); a span's ``start_s`` is
the offset from this process's epoch. The wall-clock epoch captured at
the same instant gives every span an absolute ``ts``, so spans from
many processes share one timeline (to NTP accuracy).
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from typing import Dict, List, Optional

from repro.config import env
from repro.obs import profile as profiling
from repro.obs.store import TraceStore

# Captured back to back: _EPOCH_WALL + (perf_counter() - _EPOCH)
# approximates wall time for any span this process records.
_EPOCH = time.perf_counter()
_EPOCH_WALL = time.time()


class _Active(threading.local):
    capture: Optional["TraceCapture"] = None


_active = _Active()


class Span:
    """An open span, as ``span()`` yields it inside a capture."""

    __slots__ = ("name", "attrs", "span_id", "parent_id")

    def __init__(self, name: str, attrs: Dict[str, object],
                 parent_id: Optional[str]) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id = os.urandom(8).hex()
        self.parent_id = parent_id

    def set(self, **attrs: object) -> None:
        """Attach attributes while the span is open."""
        self.attrs.update(attrs)

    def to_json_dict(self, trace_id: str, started: float,
                     ended: float) -> Dict[str, object]:
        start_s = started - _EPOCH
        payload: Dict[str, object] = {
            "name": self.name,
            "start_s": round(start_s, 6),
            "ms": round((ended - started) * 1000.0, 3),
            "pid": os.getpid(),
            "attrs": self.attrs,
            "trace_id": trace_id,
            "span_id": self.span_id,
        }
        if self.parent_id:
            payload["parent_id"] = self.parent_id
        payload["tid"] = threading.get_ident()
        payload["ts"] = round(_EPOCH_WALL + start_s, 6)
        return payload


class span:
    """Time a named operation; the ``with`` block receives the
    :class:`Span`, or ``None`` outside a capture.

    The span is recorded when the block exits — including on
    exceptions, so failed operations still show their duration. A
    class rather than a ``@contextmanager`` generator: every cache
    probe opens a span, and outside a capture the generator's set-up
    cost more than the span's own work.
    """

    __slots__ = ("_name", "_attrs", "_capture", "_item", "_depth",
                 "_started")

    def __init__(self, name: str, **attrs: object) -> None:
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Optional[Span]:
        capture = self._capture = _active.capture
        if capture is None:
            return None
        stack = capture.open_spans
        item = self._item = Span(self._name, self._attrs,
                                 stack[-1] if stack else None)
        self._depth = len(stack)
        stack.append(item.span_id)
        self._started = time.perf_counter()
        return item

    def __exit__(self, *exc_info: object) -> None:
        capture = self._capture
        if capture is None:
            return
        ended = time.perf_counter()
        # truncate rather than pop: a span leaked by an abandoned
        # generator cannot parent the spans that follow this one
        del capture.open_spans[self._depth:]
        capture.spans.append(self._item.to_json_dict(
            capture.trace_id, self._started, ended))


class TraceCapture:
    """The spans of one sweep (or of one pool job within it)."""

    def __init__(self, store: Optional[TraceStore], trace_id: str,
                 parent_id: Optional[str] = None) -> None:
        self.store = store
        self.trace_id = trace_id
        self.spans: List[Dict[str, object]] = []
        #: Ids of the spans open on this thread, innermost last; a
        #: worker's capture starts under the submitter's open span.
        self.open_spans: List[str] = [parent_id] if parent_id else []
        self._profiler: Optional[profiling.SamplingProfiler] = None
        self._sealed = False
        self._closed = False
        self._previous = _active.capture
        _active.capture = self

    @classmethod
    def begin(cls, store: Optional[TraceStore]) -> "TraceCapture":
        """Start capturing a sweep under a fresh ``trace_id``."""
        capture = cls(store, uuid.uuid4().hex)
        if env.profiling_enabled():
            capture._profiler = profiling.SamplingProfiler().start()
        return capture

    def seal(self) -> None:
        """Stop collecting and restore the capture active before this
        one; idempotent.

        Called before the ledger entry is built so the profile summary
        can ride on it; ``close`` still runs later for persistence.
        """
        if self._sealed:
            return
        self._sealed = True
        _active.capture = self._previous
        if self._profiler is not None:
            self._profiler.stop()

    def profile_summary(self) -> Optional[Dict[str, object]]:
        if self._profiler is None:
            return None
        return self._profiler.summary()

    def close(self) -> None:
        """Seal, then persist the merged trace and any profile."""
        if self._closed:
            return
        self._closed = True
        self.seal()
        if self.store is None:
            return
        if self.spans:
            self.store.append(self.trace_id, self.spans)
        if self._profiler is not None and self._profiler.samples:
            self.store.write_profile(
                self.trace_id, "\n".join(self._profiler.collapsed()) + "\n")
