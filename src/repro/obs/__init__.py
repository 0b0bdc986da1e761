"""Sweep cost split.

``repro.obs.capture`` holds ``span()`` and the per-sweep
:class:`~repro.obs.capture.TraceCapture` every span adds its time to.
A recorded sweep's totals go into its run-ledger entry as ``spans``
(:mod:`repro.telemetry.ledger`); nothing else is written.

The submodule is imported by path (``from repro.obs.capture import
span``) rather than re-exported here.
"""

__all__ = [
    "capture",
]
