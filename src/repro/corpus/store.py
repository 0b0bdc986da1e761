"""The shard store: a directory of trace shards plus a manifest.

``CorpusStore`` manages durable, sharded trace corpora on disk:

* shards are v2 chunked trace containers (``<name>.rastrace``, see
  :mod:`repro.trace.format`), written streaming — ingestion never
  materialises an event list, so a shard may exceed RAM;
* ``manifest.json`` records, per shard, the event/call/return counts,
  a SHA-256 checksum, and the provenance (workload spec, ChampSim
  source file, or ad-hoc events), see :mod:`repro.corpus.manifest`;
* every read path streams too: :meth:`events` decodes one compressed
  block at a time, and :meth:`spec` hands out the picklable
  :class:`~repro.trace.replay.TraceShardSpec` that executor-driven
  sweeps fan out over.

Checksums are the corpus's integrity story end to end: :meth:`verify`
recomputes them against the manifest, and the experiment executor keys
cached trace-replay results on them, so editing a shard file both
fails verification and invalidates its cached results.
"""

from __future__ import annotations

import hashlib
import pathlib
import re
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Union

from repro.corpus.champsim import ImportStats, champsim_events
from repro.corpus.manifest import CorpusManifest, ShardRecord
from repro.core.experiment import WorkloadSpec, build_program
from repro.errors import CorpusError
from repro.isa.opcodes import ControlClass
from repro.trace.format import (
    ControlFlowEvent,
    DEFAULT_BLOCK_EVENTS,
    TraceWriter,
    VERSION_CHUNKED,
    iter_control_events,
    iter_trace_file,
)
from repro.trace.replay import TraceShardSpec

#: Shard names become filenames; keep them boring and traversal-proof.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

_SHARD_SUFFIX = ".rastrace"
_CHECKSUM_CHUNK = 1 << 20


def _file_sha256(path: pathlib.Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(_CHECKSUM_CHUNK), b""):
            digest.update(chunk)
    return digest.hexdigest()


def workload_shard_name(spec: WorkloadSpec) -> str:
    """Canonical shard name for a workload spec: ``li-s1-x0.25``."""
    return f"{spec.name}-s{spec.seed}-x{spec.scale:g}"


class CorpusStore:
    """A directory of trace shards described by one manifest."""

    MANIFEST_NAME = "manifest.json"

    def __init__(self, root: Union[str, pathlib.Path],
                 manifest: CorpusManifest) -> None:
        self.root = pathlib.Path(root)
        self.manifest = manifest

    # -- construction --------------------------------------------------

    @classmethod
    def create(cls, root: Union[str, pathlib.Path],
               description: str = "") -> "CorpusStore":
        """Initialise an empty corpus at ``root`` (dir may pre-exist)."""
        root = pathlib.Path(root)
        root.mkdir(parents=True, exist_ok=True)
        manifest_path = root / cls.MANIFEST_NAME
        if manifest_path.exists():
            raise CorpusError(
                f"{root} already holds a corpus "
                f"({cls.MANIFEST_NAME} exists); use CorpusStore.open")
        store = cls(root, CorpusManifest(description=description))
        store.save()
        return store

    @classmethod
    def open(cls, root: Union[str, pathlib.Path]) -> "CorpusStore":
        root = pathlib.Path(root)
        return cls(root, CorpusManifest.load(root / cls.MANIFEST_NAME))

    @classmethod
    def open_or_create(cls, root: Union[str, pathlib.Path],
                       description: str = "") -> "CorpusStore":
        root = pathlib.Path(root)
        if (root / cls.MANIFEST_NAME).exists():
            return cls.open(root)
        return cls.create(root, description=description)

    @property
    def manifest_path(self) -> pathlib.Path:
        return self.root / self.MANIFEST_NAME

    def save(self) -> None:
        self.manifest.save(self.manifest_path)

    # -- shard access --------------------------------------------------

    def shard_path(self, record: ShardRecord) -> pathlib.Path:
        return self.root / record.filename

    def records(
        self,
        kind: Optional[str] = None,
        predicate: Optional[Callable[[ShardRecord], bool]] = None,
        names: Optional[Iterable[str]] = None,
    ) -> List[ShardRecord]:
        """Manifest entries, optionally filtered by source kind, an
        arbitrary predicate, and/or an explicit name list."""
        if names is not None:
            selected = [self.manifest.get(name) for name in names]
        else:
            selected = list(self.manifest)
        if kind is not None:
            selected = [record for record in selected if record.kind == kind]
        if predicate is not None:
            selected = [record for record in selected if predicate(record)]
        return selected

    def events(self, name: str) -> Iterator[ControlFlowEvent]:
        """Stream one shard's events from disk."""
        return iter_trace_file(str(self.shard_path(self.manifest.get(name))))

    def spec(self, record_or_name: Union[ShardRecord, str]) -> TraceShardSpec:
        """The picklable identity executor jobs and cache keys use."""
        record = (record_or_name if isinstance(record_or_name, ShardRecord)
                  else self.manifest.get(record_or_name))
        return TraceShardSpec(
            name=record.name,
            path=str(self.shard_path(record)),
            checksum=record.checksum,
            events=record.events,
            calls=record.calls,
            returns=record.returns,
        )

    def specs(self, **filters) -> List[TraceShardSpec]:
        return [self.spec(record) for record in self.records(**filters)]

    # -- ingestion -----------------------------------------------------

    def add_shard(
        self,
        name: str,
        events: Iterable[ControlFlowEvent],
        source: Dict[str, object],
        version: int = VERSION_CHUNKED,
        block_events: int = DEFAULT_BLOCK_EVENTS,
    ) -> ShardRecord:
        """Stream ``events`` into a new shard and register it.

        The event iterable is consumed exactly once and never
        materialised; counts and the checksum are computed along the
        way. A failed ingest removes the partial file before
        re-raising, so the corpus directory never holds orphans.
        """
        if not _NAME_RE.match(name):
            raise CorpusError(
                f"bad shard name {name!r}; use letters, digits, '.', "
                f"'_' and '-' only")
        if name in self.manifest:
            raise CorpusError(f"duplicate shard name {name!r}")
        path = self.root / f"{name}{_SHARD_SUFFIX}"
        if path.exists():
            raise CorpusError(f"shard file {path} already exists")
        calls = 0
        returns = 0
        try:
            with open(path, "wb") as stream:
                writer = TraceWriter(stream, version=version,
                                     block_events=block_events)
                for event in events:
                    writer.append(event)
                    if event.control.is_call:
                        calls += 1
                    elif event.control is ControlClass.RETURN:
                        returns += 1
                count = writer.close()
        except BaseException:
            path.unlink(missing_ok=True)
            raise
        record = ShardRecord(
            name=name,
            filename=path.name,
            format_version=version,
            events=count,
            calls=calls,
            returns=returns,
            checksum=_file_sha256(path),
            source=dict(source),
        )
        self.manifest.add(record)
        self.save()
        return record

    def build_from_specs(
        self,
        specs: Iterable[WorkloadSpec],
        max_instructions: int = 50_000_000,
    ) -> List[ShardRecord]:
        """Record one shard per workload spec via the reference emulator."""
        records = []
        for spec in specs:
            records.append(self.add_shard(
                workload_shard_name(spec),
                iter_control_events(build_program(spec),
                                    max_instructions=max_instructions),
                source={"kind": "workload", "name": spec.name,
                        "seed": spec.seed, "scale": spec.scale},
            ))
        return records

    def import_champsim(
        self,
        trace_path: Union[str, pathlib.Path],
        name: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> "tuple[ShardRecord, ImportStats]":
        """Decode a ChampSim trace into a shard; returns import stats."""
        trace_path = pathlib.Path(trace_path)
        if name is None:
            name = trace_path.name.split(".")[0]
        stats = ImportStats()
        record = self.add_shard(
            name, champsim_events(trace_path, limit=limit, stats=stats),
            source={"kind": "champsim", "path": str(trace_path),
                    **({"limit": limit} if limit is not None else {})})
        return record, stats

    # -- integrity -----------------------------------------------------

    def verify(self) -> None:
        """Recompute every shard checksum against the manifest.

        Raises :class:`CorpusError` naming each missing or modified
        shard with the found-vs-expected digests.
        """
        problems = []
        for record in self.manifest:
            path = self.shard_path(record)
            if not path.exists():
                problems.append(f"{record.name}: shard file {path} missing")
                continue
            found = _file_sha256(path)
            if found != record.checksum:
                problems.append(
                    f"{record.name}: checksum mismatch: found {found}, "
                    f"expected {record.checksum}")
        if problems:
            raise CorpusError(
                "corpus verification failed:\n  " + "\n  ".join(problems))

    def summary_rows(self) -> List[List[object]]:
        """One row per shard for CLI/report tables."""
        return [
            [record.name, record.kind, record.format_version, record.events,
             record.calls, record.returns, record.checksum[:12]]
            for record in self.manifest
        ]
