"""Telemetry: per-sweep metrics and the run ledger.

Stdlib-only and cheap enough to leave on (<3% overhead on the smoke
sweep, asserted in the tests — metrics and ledger entries are built
per *sweep*, never per simulated instruction). The run ledger is the
one switch: an executor with a ledger records each sweep, one without
records nothing.

* **metrics** — per-sweep counters under :func:`metric_key` labels,
  counted from results in submission order, so they are identical at
  every ``--jobs`` setting;
* **run ledger** — :class:`RunLedger`: append-only JSONL, by default
  under the cache root, recording every sweep (configs, cache hits,
  wall time, headline rates, metrics, span totals), with content-hash
  run ids and a ``repro-sim runs list/show/compare`` CLI.

Spans are counted in :mod:`repro.obs.capture`; this package imports
nothing from ``repro.obs``. See docs/observability.md for the full
metric/span/ledger reference.
"""

from repro.telemetry.ledger import (
    LEDGER_FILENAME,
    LEDGER_SCHEMA,
    NONDETERMINISTIC_KEYS,
    RunLedger,
    compare_entries,
    deterministic_view,
    entry_digest,
    numeric_leaves,
)
from repro.telemetry.metrics import metric_key

__all__ = [
    "LEDGER_FILENAME",
    "LEDGER_SCHEMA",
    "NONDETERMINISTIC_KEYS",
    "RunLedger",
    "compare_entries",
    "deterministic_view",
    "entry_digest",
    "metric_key",
    "numeric_leaves",
]
