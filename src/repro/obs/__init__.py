"""Sweep tracing and profiling.

One sweep's spans — the submitter's and its pool workers' — form a
single trace:

- ``repro.obs.capture`` — ``span()``, and the per-sweep
  :class:`~repro.obs.capture.TraceCapture` every span records into.
- ``repro.obs.store`` — JSONL trace store beside the run ledger.
- ``repro.obs.analysis`` — waterfall / critical-path / Chrome-trace
  rendering of merged traces.
- ``repro.obs.profile`` — opt-in sampling profiler (``REPRO_PROFILE=1``).

Submodules are imported by path (``from repro.obs.capture import
span``) rather than re-exported here, so importing one does not load
the others.
"""

__all__ = [
    "analysis",
    "capture",
    "profile",
    "store",
]
