"""Sweep tracing on top of ``repro.telemetry``.

The telemetry layer (spans, metrics, ledger) is process-local; this
package stitches one sweep's spans — the submitter's and its pool
workers' — into a single trace:

- ``repro.obs.context`` — trace-context propagation (``trace_id`` /
  ``span_id`` / ``parent_id``) across threads and pool processes.
- ``repro.obs.capture`` — per-sweep span collection into a trace store.
- ``repro.obs.store`` — JSONL trace store next to the result cache.
- ``repro.obs.analysis`` — waterfall / critical-path / Chrome-trace
  rendering of merged traces.
- ``repro.obs.profile`` — opt-in sampling profiler (``REPRO_PROFILE=1``).

Submodules are imported by path (``from repro.obs import context``)
rather than re-exported here: ``repro.telemetry.spans`` imports
``repro.obs.context`` at module load, so this ``__init__`` must stay
free of imports that reach back into ``repro.telemetry``.
"""

__all__ = [
    "analysis",
    "capture",
    "context",
    "profile",
    "store",
]
