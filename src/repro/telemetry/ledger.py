"""The persistent run ledger: append-only JSONL of every sweep.

Each :meth:`SweepExecutor.run <repro.core.executor.SweepExecutor.run>`
appends one entry to ``<cache root>/ledger.jsonl`` recording what ran
and what came out: timestamp, workload descriptors, the distinct
``MachineConfig.fingerprint()``s, engines, worker count, cache
hits/misses, wall time, the code fingerprint, headline rates, the
sweep's deterministic counters (``metrics.counters``, keyed by
:func:`repro.telemetry.metrics.metric_key`) and its cost split
(``spans``: calls and seconds per span name, from
:mod:`repro.obs.capture`). The schema is documented in
docs/observability.md.

Integrity: an entry's ``run_id`` is the truncated SHA-256 of its own
canonical JSON (everything but the ``run_id`` field), so every record
is verifiable against the config and code fingerprints it claims —
editing a ledger line by hand breaks :meth:`RunLedger.verify` for that
entry, the same found-vs-expected discipline the corpus applies to
shard checksums.

Determinism: everything except the explicitly timing-valued keys
(:data:`NONDETERMINISTIC_KEYS`) is a pure function of the submitted
jobs and their results, so a parallel ``--jobs N`` sweep ledgers
bit-identically to a serial one — :func:`deterministic_view` is the
comparison the tests (and ``repro-sim runs compare``) build on.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict, List, Optional, Union

from repro.errors import TelemetryError

#: Bump when the ledger entry layout changes shape.
LEDGER_SCHEMA = 1

LEDGER_FILENAME = "ledger.jsonl"

#: Entry keys that legitimately differ between two runs of the same
#: sweep: wall-clock identity and timing, the span totals (``spans``)
#: among it. ``cluster`` (the retired remote-worker backend's
#: scheduling block), ``trace_id`` and ``profile`` (the retired trace
#: files and sampling profiler) appear only in older ledgers; they stay
#: listed so those entries still compare equal to new ones.
NONDETERMINISTIC_KEYS = ("run_id", "ts", "utc", "wall_time_s", "sim_time_s",
                         "spans", "cluster", "trace_id", "profile")

Entry = Dict[str, object]


def entry_digest(entry: Entry) -> str:
    """SHA-256 of the entry's canonical JSON, excluding ``run_id``."""
    payload = {key: value for key, value in entry.items() if key != "run_id"}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def deterministic_view(entry: Entry) -> Entry:
    """The entry minus timing — identical across reruns of one sweep."""
    return {key: value for key, value in entry.items()
            if key not in NONDETERMINISTIC_KEYS}


class RunLedger:
    """Append-only JSONL store of run records."""

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = pathlib.Path(path)

    @classmethod
    def at_root(cls, root: Union[str, pathlib.Path]) -> "RunLedger":
        """The ledger living under a cache root directory."""
        return cls(pathlib.Path(root) / LEDGER_FILENAME)

    def append(self, entry: Entry) -> Entry:
        """Stamp ``entry`` with schema + content-hash run id and append it.

        Returns the stamped entry. Ledger writes never fail a sweep: an
        unwritable ledger degrades to "no ledger", mirroring the result
        cache's behaviour on read-only cache dirs.
        """
        entry = dict(entry)
        entry.setdefault("schema", LEDGER_SCHEMA)
        entry["run_id"] = entry_digest(entry)[:12]
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a") as stream:
                # a single write of one "\n"-terminated line keeps
                # concurrent appenders from tearing each other's records
                stream.write(json.dumps(entry, sort_keys=True, default=str)
                             + "\n")
        except OSError:
            pass
        return entry

    def entries(self, limit: Optional[int] = None) -> List[Entry]:
        """All parseable entries, oldest first (torn lines are skipped)."""
        try:
            text = self.path.read_text()
        except OSError:
            return []
        parsed: List[Entry] = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # torn or hand-mangled line
            if isinstance(entry, dict):
                parsed.append(entry)
        if limit is not None:
            return parsed[-limit:]
        return parsed

    def get(self, ref: str) -> Entry:
        """Resolve ``ref``: an integer index (``-1`` = latest) or a
        ``run_id`` prefix. Ambiguous or unknown refs raise
        :class:`~repro.errors.TelemetryError`."""
        entries = self.entries()
        if not entries:
            raise TelemetryError(f"run ledger {self.path} is empty or missing")
        try:
            index = int(ref)
        except ValueError:
            matches = [entry for entry in entries
                       if str(entry.get("run_id", "")).startswith(ref)]
            if len(matches) == 1:
                return matches[0]
            if not matches:
                raise TelemetryError(
                    f"no ledger entry matches run id {ref!r}")
            raise TelemetryError(
                f"run id prefix {ref!r} is ambiguous "
                f"({len(matches)} matches); give more characters")
        try:
            return entries[index]
        except IndexError:
            raise TelemetryError(
                f"ledger index {index} out of range "
                f"({len(entries)} entries)")

    def verify(self, entry: Entry) -> bool:
        """Does the entry's ``run_id`` match its own content digest?"""
        return entry.get("run_id") == entry_digest(entry)[:12]


# ----------------------------------------------------------------------
# Entry comparison (``repro-sim runs compare``).

#: Identity-valued entry keys compared field-wise.
_IDENTITY_FIELDS = ("schema", "kind", "engines", "jobs", "submitted",
                    "workloads", "configs", "code")

#: Numeric-valued entry keys flattened into the metric delta.
_NUMERIC_FIELDS = ("cache", "headline", "metrics", "wall_time_s",
                   "sim_time_s", "spans")


def _numeric_leaves(value: object, prefix: str,
                    out: Dict[str, float]) -> None:
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        out[prefix] = float(value)
    elif isinstance(value, dict):
        for key in value:
            _numeric_leaves(value[key], f"{prefix}.{key}", out)


def numeric_leaves(entry: Entry) -> Dict[str, float]:
    """Flatten an entry's numeric payload to dotted-path -> value."""
    out: Dict[str, float] = {}
    for field in _NUMERIC_FIELDS:
        if field in entry:
            _numeric_leaves(entry[field], field, out)
    return out


def compare_entries(a: Entry, b: Entry) -> Entry:
    """Diff two ledger entries: config delta + metric delta.

    ``fields`` holds every identity field whose values differ (for
    ``configs`` — the sorted list of machine fingerprints — the delta
    also names what was added and removed). ``metrics`` maps every
    numeric leaf present in either entry to its two values and
    ``b - a`` delta; unchanged leaves are included with delta 0 so the
    caller can choose how much to show.
    """
    fields: Dict[str, object] = {}
    for field in _IDENTITY_FIELDS:
        va, vb = a.get(field), b.get(field)
        if va == vb:
            continue
        delta: Dict[str, object] = {"a": va, "b": vb}
        if field == "configs":
            set_a = set(va or [])  # type: ignore[arg-type]
            set_b = set(vb or [])  # type: ignore[arg-type]
            delta["added"] = sorted(set_b - set_a)
            delta["removed"] = sorted(set_a - set_b)
        fields[field] = delta

    leaves_a = numeric_leaves(a)
    leaves_b = numeric_leaves(b)
    metrics: Dict[str, object] = {}
    for name in sorted(set(leaves_a) | set(leaves_b)):
        va_n = leaves_a.get(name)
        vb_n = leaves_b.get(name)
        metrics[name] = {
            "a": va_n,
            "b": vb_n,
            "delta": (None if va_n is None or vb_n is None
                      else round(vb_n - va_n, 9)),
        }
    return {
        "a": a.get("run_id"),
        "b": b.get("run_id"),
        "fields": fields,
        "metrics": metrics,
    }
