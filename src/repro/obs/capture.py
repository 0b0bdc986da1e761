"""Sweep cost split: ``span()`` adds its time to the active capture.

A *span* times one named operation inside a sweep — the sweep itself,
one job, a cache probe, a shard replay. Usage::

    with span("cache/get"):
        ...

``SweepExecutor.run`` begins a :class:`TraceCapture` around each sweep
it records in a run ledger. Beginning a capture makes it the active one
on its thread; every ``span()`` on that thread then adds one call and
its inclusive duration to ``capture.totals[name]``. Outside a capture
``span()`` records nothing, at the cost of one thread-local read.

A pool worker runs its job under a capture of its own
(:func:`repro.core.executor._run_job_traced`) and returns the totals
with the result; the submitter adds them into its capture. ``close``
hands back the rounded totals, which the ledger entry stores as
``spans`` (docs/observability.md).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional


class _Active(threading.local):
    capture: Optional["TraceCapture"] = None


_active = _Active()


class span:
    """Time a named operation into the active capture, if there is one.

    The call is counted when the block exits, including on exceptions,
    so failed operations still show their duration. A class rather than
    a ``@contextmanager`` generator: every cache probe opens a span, and
    outside a capture the generator's set-up cost more than the span's
    own work.
    """

    __slots__ = ("_name", "_totals", "_started")

    def __init__(self, name: str) -> None:
        self._name = name

    def __enter__(self) -> None:
        capture = _active.capture
        if capture is None:
            self._totals = None
            return
        self._totals = capture.totals
        self._started = time.perf_counter()

    def __exit__(self, *exc_info: object) -> None:
        totals = self._totals
        if totals is None:
            return
        elapsed = time.perf_counter() - self._started
        total = totals.get(self._name)
        if total is None:
            totals[self._name] = [1, elapsed]
        else:
            total[0] += 1
            total[1] += elapsed


class TraceCapture:
    """The span totals of one sweep (or of one pool job within it)."""

    def __init__(self) -> None:
        #: span name -> [calls, inclusive seconds]
        self.totals: Dict[str, List[float]] = {}
        self._previous = _active.capture
        _active.capture = self

    @classmethod
    def begin(cls) -> "TraceCapture":
        """Start counting; the new capture is the active one."""
        return cls()

    def add(self, totals: Dict[str, List[float]]) -> None:
        """Fold another capture's totals (a pool job's) into this one."""
        for name, (calls, seconds) in totals.items():
            total = self.totals.setdefault(name, [0, 0.0])
            total[0] += calls
            total[1] += seconds

    def seal(self) -> None:
        """Stop counting and restore the capture active before this one;
        idempotent."""
        if _active.capture is self:
            _active.capture = self._previous

    def close(self) -> Dict[str, Dict[str, float]]:
        """Seal, then return the totals as the ledger entry stores them:
        ``{name: {"calls": n, "s": seconds}}``, sorted by name."""
        self.seal()
        return {name: {"calls": calls, "s": round(seconds, 6)}
                for name, (calls, seconds) in sorted(self.totals.items())}
