"""Fetching public ChampSim trace sets into a corpus.

A *trace-set manifest* is a small checked-in JSON document naming the
traces a corpus should be built from (documented in docs/validation.md):

.. code-block:: json

    {
      "schema": 1,
      "name": "sample",
      "description": "...",
      "traces": [
        {"name": "sample-champsim",
         "url": "https://host/path/trace.champsim.xz",
         "sha256": "<64 hex chars>",
         "bytes": 312}
      ]
    }

``url`` may be ``http(s)://`` or ``file://``, or a plain relative path
resolved against the manifest's own directory — which is how CI builds
a real corpus with zero network from a manifest that points at the
checked-in sample trace. Downloads are **resumable** (a ``.part`` file
plus an HTTP ``Range`` request picks up where a dropped transfer
stopped) and always end with a full SHA-256 verification against the
manifest; an existing file with the right digest is never re-fetched.

:func:`check_manifest` is the zero-network validation gate
(``repro-sim corpus fetch --check-manifest``, wired into the lint CI
job): schema, name, URL scheme, and digest shape problems are all
collected and reported at once. :func:`ingest_traces` fans decode +
shard-write over a process pool (the workers never touch the manifest;
the parent registers every record once, see
:func:`repro.corpus.store.ingest_champsim_shard`).
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import multiprocessing
import pathlib
import re
import urllib.error
import urllib.parse
import urllib.request
from typing import Callable, Dict, Iterable, List, Optional, Union

from repro.corpus.champsim import ImportStats
from repro.corpus.manifest import ShardRecord
from repro.corpus.store import (
    CorpusStore,
    _file_sha256,
    check_shard_name,
    ingest_champsim_shard,
)
from repro.errors import CorpusError

#: Bump when the trace-set manifest JSON layout changes shape.
TRACESET_SCHEMA = 1

#: URL schemes the fetcher accepts (plain relative paths also work).
ALLOWED_SCHEMES = ("http", "https", "file")

_SHA256_RE = re.compile(r"^[0-9a-f]{64}$")

_DOWNLOAD_CHUNK = 1 << 20


@dataclasses.dataclass(frozen=True)
class TraceSetEntry:
    """One trace in a trace-set manifest."""

    name: str
    url: str
    sha256: str
    #: Expected size; advisory (progress display), never enforced.
    bytes: Optional[int] = None

    @property
    def filename(self) -> str:
        """Local filename: the entry name plus the URL's suffixes, so
        the compression sniffing of the importer keeps working."""
        path = urllib.parse.urlparse(self.url).path or self.url
        suffix = "".join(pathlib.PurePosixPath(path).suffixes)
        return f"{self.name}{suffix}"


@dataclasses.dataclass(frozen=True)
class TraceSetManifest:
    """A parsed, validated trace-set manifest."""

    name: str
    description: str
    traces: "tuple[TraceSetEntry, ...]"
    #: Directory relative URLs resolve against (the manifest's own).
    base_dir: Optional[pathlib.Path] = None

    def entry(self, name: str) -> TraceSetEntry:
        for trace in self.traces:
            if trace.name == name:
                return trace
        raise CorpusError(
            f"trace set {self.name!r} has no trace named {name!r}; "
            f"it has {[t.name for t in self.traces]}")

    @classmethod
    def from_json_dict(
        cls, data: Dict[str, object],
        base_dir: Optional[pathlib.Path] = None,
    ) -> "TraceSetManifest":
        problems: List[str] = []
        schema = data.get("schema")
        if schema != TRACESET_SCHEMA:
            raise CorpusError(
                f"unsupported trace-set schema: found {schema!r}, "
                f"expected {TRACESET_SCHEMA}")
        raw = data.get("traces", [])
        if not isinstance(raw, list) or not raw:
            raise CorpusError("trace-set manifest needs a non-empty "
                              "'traces' list")
        entries: List[TraceSetEntry] = []
        seen: set = set()
        for position, item in enumerate(raw):
            if not isinstance(item, dict):
                problems.append(f"traces[{position}]: not an object")
                continue
            name = str(item.get("name", ""))
            try:
                check_shard_name(name)
            except CorpusError as error:
                problems.append(f"traces[{position}]: {error}")
            if name in seen:
                problems.append(
                    f"traces[{position}]: duplicate trace name {name!r}")
            seen.add(name)
            url = str(item.get("url", ""))
            if not url:
                problems.append(f"traces[{position}] ({name}): missing url")
            else:
                scheme = urllib.parse.urlparse(url).scheme
                if scheme and scheme not in ALLOWED_SCHEMES:
                    problems.append(
                        f"traces[{position}] ({name}): scheme {scheme!r} "
                        f"not in {ALLOWED_SCHEMES}")
            digest = str(item.get("sha256", ""))
            if not _SHA256_RE.match(digest):
                problems.append(
                    f"traces[{position}] ({name}): sha256 must be 64 "
                    f"lowercase hex chars, got {digest!r}")
            size = item.get("bytes")
            if size is not None and (not isinstance(size, int) or size < 0):
                problems.append(
                    f"traces[{position}] ({name}): bytes must be a "
                    f"non-negative integer")
            entries.append(TraceSetEntry(name=name, url=url, sha256=digest,
                                         bytes=size))  # type: ignore[arg-type]
        if problems:
            raise CorpusError(
                "invalid trace-set manifest:\n  " + "\n  ".join(problems))
        return cls(
            name=str(data.get("name", "")),
            description=str(data.get("description", "")),
            traces=tuple(entries),
            base_dir=base_dir,
        )

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "TraceSetManifest":
        path = pathlib.Path(path)
        try:
            data = json.loads(path.read_text())
        except OSError as error:
            raise CorpusError(
                f"cannot read trace-set manifest {path}: {error}") from error
        except ValueError as error:
            raise CorpusError(
                f"trace-set manifest {path} is not valid JSON: "
                f"{error}") from error
        if not isinstance(data, dict):
            raise CorpusError(
                f"trace-set manifest {path} must be a JSON object")
        return cls.from_json_dict(data, base_dir=path.parent.resolve())

    def resolve(self, entry: TraceSetEntry) -> "tuple[str, Optional[pathlib.Path]]":
        """The entry's source as ``(url, local_path)``.

        ``local_path`` is set for ``file://`` URLs and relative paths
        (copied with seek-resume instead of HTTP).
        """
        parsed = urllib.parse.urlparse(entry.url)
        if parsed.scheme in ("http", "https"):
            return entry.url, None
        if parsed.scheme == "file":
            return entry.url, pathlib.Path(
                urllib.request.url2pathname(parsed.path))
        base = self.base_dir if self.base_dir is not None else pathlib.Path()
        return entry.url, (base / entry.url).resolve()


def check_manifest(path: Union[str, pathlib.Path]) -> TraceSetManifest:
    """Validate a trace-set manifest with **zero network traffic**.

    Schema shape, shard-safe names, uniqueness, URL schemes, and digest
    format — everything except the actual bytes. This is the lint-job
    gate keeping CI independent of external trace hosts.
    """
    return TraceSetManifest.load(path)


def _copy_resume(source: pathlib.Path, part: pathlib.Path,
                 offset: int) -> None:
    with open(source, "rb") as stream:
        stream.seek(offset)
        with open(part, "ab") as out:
            for chunk in iter(lambda: stream.read(_DOWNLOAD_CHUNK), b""):
                out.write(chunk)


def _download_resume(url: str, part: pathlib.Path, offset: int) -> None:
    request = urllib.request.Request(url)
    if offset:
        request.add_header("Range", f"bytes={offset}-")
    try:
        response = urllib.request.urlopen(request)
    except urllib.error.HTTPError as error:
        if offset and error.code == 416:
            return  # already have every byte; the digest check decides
        raise
    with response:
        status = getattr(response, "status", 200)
        mode = "ab"
        if offset and status != 206:
            mode = "wb"  # server ignored the Range header: restart
        with open(part, mode) as out:
            for chunk in iter(lambda: response.read(_DOWNLOAD_CHUNK), b""):
                out.write(chunk)


def fetch_entry(
    manifest: TraceSetManifest,
    entry: TraceSetEntry,
    dest_dir: Union[str, pathlib.Path],
    progress: Optional[Callable[[str], None]] = None,
) -> pathlib.Path:
    """Fetch one trace into ``dest_dir``; returns the verified path.

    Resumable: an interrupted transfer leaves ``<file>.part`` behind,
    and the next call continues from its size (HTTP ``Range`` for
    remote sources, a plain seek for local ones). The finished file
    must match the manifest digest or the fetch fails typed — a corrupt
    partial is removed so the next attempt starts clean.
    """
    dest_dir = pathlib.Path(dest_dir)
    dest_dir.mkdir(parents=True, exist_ok=True)
    dest = dest_dir / entry.filename
    if dest.exists():
        found = _file_sha256(dest)
        if found == entry.sha256:
            if progress:
                progress(f"{entry.name}: already fetched ({dest.name})")
            return dest
        raise CorpusError(
            f"{entry.name}: existing file {dest} does not match the "
            f"manifest (found {found}, expected {entry.sha256}); remove "
            f"it to re-fetch")
    url, local = manifest.resolve(entry)
    part = dest.with_name(dest.name + ".part")
    offset = part.stat().st_size if part.exists() else 0
    if progress:
        verb = "resuming" if offset else "fetching"
        progress(f"{entry.name}: {verb} {url}"
                 + (f" at byte {offset}" if offset else ""))
    try:
        if local is not None:
            if not local.exists():
                raise CorpusError(
                    f"{entry.name}: local trace {local} does not exist")
            _copy_resume(local, part, offset)
        else:
            _download_resume(url, part, offset)
    except OSError as error:
        raise CorpusError(
            f"{entry.name}: fetch from {url} failed: {error}") from error
    found = _file_sha256(part)
    if found != entry.sha256:
        part.unlink(missing_ok=True)
        raise CorpusError(
            f"{entry.name}: digest mismatch after fetch from {url}: "
            f"found {found}, expected {entry.sha256}")
    part.replace(dest)
    if progress:
        progress(f"{entry.name}: verified {dest.stat().st_size} bytes")
    return dest


def fetch_set(
    manifest: TraceSetManifest,
    dest_dir: Union[str, pathlib.Path],
    names: Optional[Iterable[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> "List[tuple[TraceSetEntry, pathlib.Path]]":
    """Fetch every (selected) trace of a set; returns (entry, path)."""
    entries = (list(manifest.traces) if names is None
               else [manifest.entry(name) for name in names])
    return [(entry, fetch_entry(manifest, entry, dest_dir,
                                progress=progress))
            for entry in entries]


def _fork_pool(workers: int):
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - fork-less platform
        context = None
    kwargs = {"mp_context": context} if context is not None else {}
    return concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, **kwargs)


def ingest_traces(
    store: CorpusStore,
    items: "Iterable[tuple[str, pathlib.Path]]",
    jobs: int = 1,
    limit: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> "List[tuple[ShardRecord, ImportStats]]":
    """Decode ``(shard name, trace path)`` pairs into ``store``.

    With ``jobs > 1`` decode + shard-write fans over a fork-based
    process pool; the manifest is only ever written by this process,
    once, after every worker finished — so parallel ingestion cannot
    race the manifest, and a corpus is never half-registered.
    All-or-nothing: any failure unlinks every file this call wrote and
    re-raises, leaving the store as it was.
    """
    items = list(items)
    for name, _ in items:
        check_shard_name(name)
        if name in store.manifest:
            raise CorpusError(f"duplicate shard name {name!r}")
    seen: set = set()
    for name, _ in items:
        if name in seen:
            raise CorpusError(f"duplicate shard name {name!r} in batch")
        seen.add(name)
    results: List[Optional["tuple[ShardRecord, ImportStats]"]] = (
        [None] * len(items))
    try:
        if jobs > 1 and len(items) > 1:
            try:
                with _fork_pool(min(jobs, len(items))) as pool:
                    futures = [
                        pool.submit(ingest_champsim_shard, store.root,
                                    name, path, limit)
                        for name, path in items]
                    for index, future in enumerate(futures):
                        results[index] = future.result()
            except OSError:
                pass  # e.g. sandboxed semaphores; retry serially
        for index, (name, path) in enumerate(items):
            if results[index] is None:
                results[index] = ingest_champsim_shard(
                    store.root, name, path, limit=limit)
    except BaseException:
        for outcome, (name, _) in zip(results, items):
            if outcome is not None:
                store.shard_path(outcome[0]).unlink(missing_ok=True)
        raise
    for outcome in results:
        assert outcome is not None
        store.register(outcome[0])
        if progress:
            record, stats = outcome
            progress(f"{record.name}: {record.events} events, "
                     f"{record.returns} returns, "
                     f"{stats.offset_mismatches} offset mismatches")
    return results  # type: ignore[return-value]


def fetch_and_build(
    manifest: TraceSetManifest,
    store: CorpusStore,
    dest_dir: Optional[Union[str, pathlib.Path]] = None,
    names: Optional[Iterable[str]] = None,
    jobs: int = 1,
    limit: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> "List[tuple[ShardRecord, ImportStats]]":
    """Fetch a trace set and ingest every trace into ``store``.

    ``dest_dir`` defaults to ``<corpus root>/downloads``. Traces whose
    shard name is already in the corpus are skipped (idempotent
    re-runs); everything newly fetched is verified against the manifest
    digests before a single byte is decoded.
    """
    if dest_dir is None:
        dest_dir = store.root / "downloads"
    entries = (list(manifest.traces) if names is None
               else [manifest.entry(name) for name in names])
    wanted = [entry for entry in entries
              if entry.name not in store.manifest]
    for entry in entries:
        if entry.name in store.manifest and progress:
            progress(f"{entry.name}: already in corpus, skipping")
    fetched = fetch_set(manifest, dest_dir,
                        names=[entry.name for entry in wanted],
                        progress=progress)
    return ingest_traces(
        store, [(entry.name, path) for entry, path in fetched],
        jobs=jobs, limit=limit, progress=progress)
