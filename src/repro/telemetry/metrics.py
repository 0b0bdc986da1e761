"""Metric keys for the per-sweep counters of the run ledger.

Each sweep counts plain integers — jobs per engine, cache outcomes,
instructions, every result counter — under a *metric key*: a name plus
sorted labels, encoded Prometheus-style as ``name{k=v,k2=v2}``. The
counts come from ``(job, result)`` pairs in submission order, so a
parallel sweep's counters equal a serial one's
(:meth:`repro.core.executor.SweepExecutor.sweep_metrics`).
"""

from __future__ import annotations

from typing import Mapping


def metric_key(name: str, labels: Mapping[str, object]) -> str:
    """Canonical key for ``name`` + ``labels``: ``name{k=v}``.

    Labels are sorted by key, so every construction order yields the
    same key — the property counter equality rests on.
    """
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"
