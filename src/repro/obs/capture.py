"""Per-sweep trace capture: collect local + pool-worker spans, persist them.

``SweepExecutor._run_all`` opens a :class:`TraceCapture` around each
sweep. The capture:

1. establishes a root trace context on the submitting thread (unless
   one is already active, in which case the sweep joins that trace);
2. subscribes to the process-global span recorder and collects every
   span tagged with this trace's id (serial jobs, cache probes, the
   ``sweep/run`` root itself);
3. accepts the span batches pool workers return with their results;
4. optionally runs the sampling profiler (``REPRO_PROFILE=1``); and
5. on close, writes the merged trace to the :class:`TraceStore` next
   to the ledger.

``begin`` returns ``None`` when telemetry or tracing is off, so the
executor's hot path stays a single ``is not None`` check.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs import context as tracectx
from repro.obs import profile as profiling
from repro.obs.store import TraceStore
from repro.telemetry import state
from repro.telemetry.spans import Span, recorder


class TraceCapture:
    def __init__(self, store: Optional[TraceStore],
                 trace_id: str, ctx_token: Optional[int]) -> None:
        self.store = store
        self.trace_id = trace_id
        self._ctx_token = ctx_token
        self._spans: List[Dict[str, object]] = []
        # span_ids already merged: a batch handed in twice (or a span
        # both recorded here and returned by a worker) is kept once
        self._seen: set = set()
        self._sealed = False
        self._closed = False
        self._profiler: Optional[profiling.SamplingProfiler] = None
        if profiling.profiling_enabled():
            self._profiler = profiling.SamplingProfiler().start()

        def _collect(item: Span) -> None:
            if item.trace_id == trace_id:
                self._add(item.to_json_dict())

        self._token: Optional[int] = recorder.subscribe(_collect)

    def _add(self, item: Dict[str, object]) -> bool:
        span_id = item.get("span_id")
        if span_id is not None:
            if span_id in self._seen:
                return False
            self._seen.add(span_id)
        self._spans.append(item)
        return True

    @classmethod
    def begin(cls, store: Optional[TraceStore]) -> Optional["TraceCapture"]:
        """Start capturing for the current sweep, or None if tracing is
        off. Joins the ambient trace when one exists; otherwise mints a
        fresh ``trace_id`` and pushes a root context."""
        if not state.enabled() or not tracectx.tracing_enabled():
            return None
        ctx = tracectx.current()
        token: Optional[int] = None
        if ctx is None:
            ctx = tracectx.TraceContext(tracectx.new_trace_id(), "")
            token = tracectx.push(ctx)
        return cls(store, ctx.trace_id, token)

    def add_spans(self, spans: object) -> int:
        """Merge a remote span batch (list of dicts); returns accepted.

        Anything that is not a dict carrying *this* trace's id is
        dropped — a crashed worker's garbage cannot pollute the trace.
        """
        if not isinstance(spans, list):
            return 0
        accepted = 0
        for item in spans:
            if isinstance(item, dict) and item.get("trace_id") == self.trace_id:
                if self._add(item):
                    accepted += 1
        return accepted

    def seal(self) -> None:
        """Stop collecting (subscriber + profiler); idempotent.

        Called before the ledger entry is built so the profile summary
        can ride on it; ``close`` still runs later for persistence.
        """
        if self._sealed:
            return
        self._sealed = True
        if self._token is not None:
            recorder.unsubscribe(self._token)
            self._token = None
        if self._profiler is not None:
            self._profiler.stop()

    def profile_summary(self) -> Optional[Dict[str, object]]:
        if self._profiler is None:
            return None
        return self._profiler.summary()

    def close(self) -> None:
        """Seal, pop the root context, persist the merged trace."""
        if self._closed:
            return
        self._closed = True
        self.seal()
        if self._ctx_token is not None:
            tracectx.pop(self._ctx_token)
            self._ctx_token = None
        if self.store is not None and self._spans:
            self.store.append(self.trace_id, self._spans)
        if (self.store is not None and self._profiler is not None
                and self._profiler.samples):
            self.store.write_profile(
                self.trace_id, "\n".join(self._profiler.collapsed()) + "\n")
