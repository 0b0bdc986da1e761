"""Parallel experiment execution with on-disk result caching.

Every table and figure of the reproduction decomposes into independent
``(workload, machine config, engine)`` simulations, so the harness is
embarrassingly parallel. This module gives the experiment layer one
scheduling point:

* :class:`ExperimentJob` names one simulation. When the workload is a
  :class:`~repro.core.experiment.WorkloadSpec` the job has a stable
  identity and is cacheable; passing a raw
  :class:`~repro.isa.program.Program` still runs, just uncached.
* :class:`JobResult` is the picklable, JSON-able summary a worker
  process sends back — headline numbers plus every counter and rate the
  engine recorded, so table builders never need the live CPU object.
* :class:`ResultCache` is a content-addressed store: the key hashes the
  workload identity, :meth:`MachineConfig.fingerprint`, the engine, and
  a fingerprint of the installed ``repro`` sources, so editing any
  simulator file invalidates every cached result automatically.
* :class:`SweepExecutor` resolves cache hits, fans the misses out over a
  ``ProcessPoolExecutor`` (fork-based where available), and falls back
  to deterministic in-process execution for ``jobs=1`` or when the
  platform refuses to give us a pool. Results always come back in
  submission order, so parallel and serial runs are bit-identical.

Run records (see docs/observability.md): the run ledger is the one
switch. An executor with a ledger appends one entry per sweep. The
entry holds deterministic per-sweep metrics counted from the results
(in submission order, so parallel == serial bit-for-bit) and the
sweep's cost split: the calls and seconds of each span
(:mod:`repro.obs.capture`) — one ``sweep/run``, a ``sweep/job`` per
job wherever it ran, and a ``cache/get``/``cache/put`` per cache
probe. By default the ledger lives under the cache root, so a sweep
without a cache (``--no-cache``, ``REPRO_CACHE=0``) records nothing.

The defaults for the worker count (``REPRO_JOBS``), the cache root
(``REPRO_CACHE_DIR``) and the cache itself (``REPRO_CACHE``) come from
:mod:`repro.config.env`, read when an executor or cache is made.
"""

from __future__ import annotations

import dataclasses
import datetime
import functools
import hashlib
import json
import os
import pathlib
import time
from typing import Dict, List, Optional, Sequence, Union

import repro
from repro.config import env
from repro.config.machine import MachineConfig
from repro.core.experiment import (
    WorkloadSpec,
    build_program,
    run_cycle,
    run_frontend,
    run_multipath,
)
from repro.errors import ConfigError
from repro.fastsim.batch import replay_shard_batched
from repro.isa.program import Program
from repro.obs.capture import TraceCapture, span
from repro.stats.counters import Counter, Rate
from repro.telemetry import RunLedger, metric_key
from repro.trace.replay import TraceShardSpec

#: Engines a job may name: the three simulator families, their
#: columnar fast twins, and the two trace-shard engines: ``"batch"``
#: replays recorded control flow block-at-a-time (capacity sweeps), and
#: ``"diffcheck"`` cross-checks it against ChampSim (below);
#: ``"cycle-fast"`` / ``"multipath-fast"`` are the work-list rewrites
#: of the execution-driven CPUs (bit-identical counters, several times
#: the throughput; see docs/engines.md and docs/performance.md).
ENGINES = ("cycle", "cycle-fast", "frontend", "multipath", "multipath-fast",
           "batch", "diffcheck")

#: The engines that replay recorded trace shards (their jobs carry a
#: TraceShardSpec instead of a workload). ``"diffcheck"`` replays a
#: shard through the configured RAS variant *and* the reference
#: ChampSim model side by side (:mod:`repro.corpus.diffcheck`),
#: reporting divergence counts — cached by shard checksum like any
#: other trace job.
TRACE_ENGINES = ("batch", "diffcheck")

#: Bump when the cached JobResult schema changes shape.
CACHE_SCHEMA = 1

#: ``json.dumps(payload, sort_keys=True)`` without building an encoder
#: per call; cache keys hash its output.
_KEY_ENCODER = json.JSONEncoder(sort_keys=True)

#: In-process count of actual simulator invocations (cache misses that
#: really simulated). Worker processes keep their own copies; with the
#: serial path this is an exact invocation counter, which the tests use
#: to prove that warm-cache reruns never touch a simulator.
SIMULATION_CALLS = 0


def simulation_calls() -> int:
    """Simulator invocations made by *this* process so far."""
    return SIMULATION_CALLS


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of every ``repro`` source file.

    Part of each cache key: editing any simulator source produces a new
    fingerprint, so stale results can never be served after a code
    change — no manual cache flushing, no version bookkeeping.
    """
    package_root = pathlib.Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Jobs and results.

@dataclasses.dataclass(frozen=True)
class ExperimentJob:
    """One independent simulation: workload x config x engine.

    ``workload`` is normally a :class:`WorkloadSpec` (cacheable and
    cheap to ship to worker processes — each worker rebuilds and
    memoises the program locally). A prebuilt :class:`Program` is also
    accepted for ad-hoc experiments; such jobs run fine but bypass the
    cache because a raw program has no stable identity to key on. The
    trace engines instead take a
    :class:`~repro.trace.replay.TraceShardSpec` — the worker reads
    the shard from disk, and the cache keys on the shard *checksum*, so
    a cached replay survives corpus moves but never a content change.
    """

    workload: Union[WorkloadSpec, Program, TraceShardSpec]
    config: MachineConfig
    engine: str = "cycle"
    max_instructions: Optional[int] = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ConfigError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}")
        if (self.engine in TRACE_ENGINES) != isinstance(self.workload,
                                                        TraceShardSpec):
            raise ConfigError(
                f"engine {self.engine!r} is incompatible with workload "
                f"{type(self.workload).__name__}; trace shards pair with "
                f"the {TRACE_ENGINES} engines only")

    @property
    def cacheable(self) -> bool:
        if isinstance(self.workload, TraceShardSpec):
            return self.workload.checksum is not None
        return isinstance(self.workload, WorkloadSpec)

    def program(self) -> Program:
        if isinstance(self.workload, WorkloadSpec):
            return build_program(self.workload)
        if isinstance(self.workload, TraceShardSpec):
            raise ConfigError(
                "trace-shard jobs replay recorded events; they have no "
                "program to build")
        return self.workload

    def cache_key(self) -> Optional[str]:
        """Content hash identifying this job's inputs, or ``None`` when
        the workload has no stable identity (raw program, or a shard
        spec without a checksum)."""
        if isinstance(self.workload, TraceShardSpec):
            if self.workload.checksum is None:
                return None
            workload_id: Dict[str, object] = {
                "shard": self.workload.name,
                "checksum": self.workload.checksum,
            }
        elif isinstance(self.workload, WorkloadSpec):
            workload_id = {
                "name": self.workload.name,
                "seed": self.workload.seed,
                "scale": self.workload.scale,
            }
        else:
            return None
        payload = _KEY_ENCODER.encode({
            "schema": CACHE_SCHEMA,
            "workload": workload_id,
            "config": self.config.fingerprint(),
            "engine": self.engine,
            "max_instructions": self.max_instructions,
            "code": code_fingerprint(),
        })
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclasses.dataclass(frozen=True)
class JobResult:
    """Picklable summary of one simulation.

    Carries the headline numbers plus every counter and rate the engine
    registered, so builders can ask for anything a live ``SimResult``
    offered without holding simulator objects (which do not survive a
    trip through a process pool or the on-disk cache).

    ``wall_time_s`` is the measured simulation time of the process that
    actually ran the job; a cache hit serves the *original* cost, with
    ``from_cache`` flipped to ``True`` by the executor, so summaries
    can report both provenance and the time a hit saved.
    """

    engine: str
    instructions: int
    cycles: float
    ipc: float
    counters: Dict[str, int]
    rates: Dict[str, Optional[float]]
    wall_time_s: float = 0.0
    from_cache: bool = False

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def rate(self, name: str) -> Optional[float]:
        return self.rates.get(name)

    @property
    def return_accuracy(self) -> Optional[float]:
        return self.rate("return_accuracy")

    @property
    def cond_accuracy(self) -> Optional[float]:
        return self.rate("cond_accuracy")

    @property
    def indirect_accuracy(self) -> Optional[float]:
        return self.rate("indirect_accuracy")

    @property
    def btb_hit_rate(self) -> Optional[float]:
        return self.rate("btb_hit_rate")

    def as_dict(self) -> Dict[str, object]:
        """Headline stats, same keys as ``SimResult.as_dict``."""
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "ipc": self.ipc,
            "cond_accuracy": self.cond_accuracy,
            "return_accuracy": self.return_accuracy,
            "indirect_accuracy": self.indirect_accuracy,
            "mispredictions": self.counter("mispredictions"),
            "squashed": self.counter("squashed"),
            "ras_overflows": self.counter("ras_overflows"),
            "ras_underflows": self.counter("ras_underflows"),
        }

    def to_json_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "JobResult":
        return cls(
            engine=str(data["engine"]),
            instructions=int(data["instructions"]),  # type: ignore[arg-type]
            cycles=float(data["cycles"]),  # type: ignore[arg-type]
            ipc=float(data["ipc"]),  # type: ignore[arg-type]
            counters={str(k): int(v) for k, v in data["counters"].items()},  # type: ignore[union-attr]
            rates={
                str(k): (None if v is None else float(v))
                for k, v in data["rates"].items()  # type: ignore[union-attr]
            },
            wall_time_s=float(data["wall_time_s"]),  # type: ignore[arg-type]
            from_cache=bool(data["from_cache"]),
        )


def _group_stats(group) -> Dict[str, Dict[str, object]]:
    counters: Dict[str, int] = {}
    rates: Dict[str, Optional[float]] = {}
    for name in group.names():
        stat = group[name]
        if isinstance(stat, Counter):
            counters[name] = stat.value
        elif isinstance(stat, Rate):
            rates[name] = stat.value
    return {"counters": counters, "rates": rates}


def _run_trace_job(job: ExperimentJob) -> JobResult:
    """Replay a trace shard through the RAS the job's config describes.

    ``"diffcheck"`` runs it beside the reference ChampSim model;
    ``"batch"`` decodes it block-at-a-time
    (:func:`repro.fastsim.batch.replay_shard_batched`), with counters
    equal to :func:`repro.trace.replay.replay_events` (RAS with BTB
    fallback) over the shard's events, as the differential tests
    assert. ``instructions`` reports the shard's control-event count;
    there is no cycle model here, so cycles/ipc are zero.
    """
    shard = job.workload
    assert isinstance(shard, TraceShardSpec)
    predictor = job.config.predictor
    if job.engine == "diffcheck":
        from repro.corpus.diffcheck import diff_shard
        report = diff_shard(shard, ras_entries=predictor.ras_entries,
                            mechanism=predictor.ras_repair)
        returns = report.returns
        return JobResult(
            engine=job.engine,
            instructions=report.events,
            cycles=0.0,
            ipc=0.0,
            counters={
                "returns": returns,
                "return_hits": report.ours_hits,
                "reference_hits": report.reference_hits,
                "divergences": report.divergences,
                "calls": shard.calls or 0,
            },
            rates={
                "return_accuracy": (report.ours_hits / returns
                                    if returns else None),
                "reference_accuracy": (report.reference_hits / returns
                                       if returns else None),
                "agreement": (1.0 - report.divergences / returns
                              if returns else None),
            },
        )
    result = replay_shard_batched(shard, ras_entries=predictor.ras_entries,
                                  mechanism=predictor.ras_repair)
    return JobResult(
        engine=job.engine,
        instructions=shard.events or 0,
        cycles=0.0,
        ipc=0.0,
        counters={
            "returns": result.returns,
            "return_hits": result.hits,
            "ras_overflows": result.overflows,
            "ras_underflows": result.underflows,
            "calls": shard.calls or 0,
        },
        rates={"return_accuracy": result.accuracy},
    )


def run_job(job: ExperimentJob) -> JobResult:
    """Execute one job in this process and summarise the outcome.

    This is the worker entry point for both the serial path and the
    process pool (it is module-level precisely so spawn-based platforms
    can pickle it). Each invocation is timed (``wall_time_s`` on the
    result) and counted as one ``sweep/job`` span.
    """
    global SIMULATION_CALLS
    SIMULATION_CALLS += 1
    started = time.perf_counter()
    with span("sweep/job"):
        result = _dispatch_job(job)
    return dataclasses.replace(
        result, wall_time_s=time.perf_counter() - started, from_cache=False)


def _run_job_traced(job: ExperimentJob
                    ) -> "tuple[JobResult, Dict[str, List[float]]]":
    """Pool-worker entry point for a recorded sweep.

    Runs the job under a capture of its own and returns its span totals
    with the result, so the submitter can add them into its capture.
    Module-level so spawn-based platforms can pickle it, like
    :func:`run_job`.
    """
    capture = TraceCapture.begin()
    try:
        result = run_job(job)
    finally:
        capture.seal()
    return result, capture.totals


def _dispatch_job(job: ExperimentJob) -> JobResult:
    if job.engine in TRACE_ENGINES:
        return _run_trace_job(job)
    program = job.program()
    if job.engine == "cycle":
        result, cpu = run_cycle(program, job.config,
                                max_instructions=job.max_instructions)
        stats = _group_stats(result.group)
        stats["rates"]["btb_hit_rate"] = cpu.frontend.btb.hit_rate
        return JobResult(engine=job.engine, instructions=result.instructions,
                         cycles=result.cycles, ipc=result.ipc, **stats)
    if job.engine == "cycle-fast":
        from repro.fastsim.cycle import run_cycle_fast
        result, cpu = run_cycle_fast(program, job.config,
                                     max_instructions=job.max_instructions)
        stats = _group_stats(result.group)
        stats["rates"]["btb_hit_rate"] = cpu.frontend.btb.hit_rate
        return JobResult(engine=job.engine, instructions=result.instructions,
                         cycles=result.cycles, ipc=result.ipc, **stats)
    if job.engine == "multipath":
        result, _ = run_multipath(program, job.config,
                                  max_instructions=job.max_instructions)
        stats = _group_stats(result.group)
        return JobResult(engine=job.engine, instructions=result.instructions,
                         cycles=result.cycles, ipc=result.ipc, **stats)
    if job.engine == "multipath-fast":
        from repro.fastsim.multipath import run_multipath_fast
        result, _ = run_multipath_fast(program, job.config,
                                       max_instructions=job.max_instructions)
        stats = _group_stats(result.group)
        return JobResult(engine=job.engine, instructions=result.instructions,
                         cycles=result.cycles, ipc=result.ipc, **stats)
    frontend = run_frontend(program, job.config)
    stats = _group_stats(frontend.group)
    return JobResult(engine=job.engine, instructions=frontend.instructions,
                     cycles=frontend.estimated_cycles,
                     ipc=frontend.estimated_ipc, **stats)


# ----------------------------------------------------------------------
# On-disk cache.

class ResultCache:
    """Content-addressed store of :class:`JobResult` JSON blobs.

    Layout: ``<root>/v<schema>/<key[:2]>/<key>.json``. Entries are
    immutable — a key encodes every input including the code
    fingerprint, so a hit is always safe to serve and invalidation is
    just "the key changed". Corrupt, truncated, or stale entries are
    treated as misses, never as errors.
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        #: The un-versioned cache root; the default run ledger, which
        #: must survive schema bumps, lives directly under it.
        self.base_root = pathlib.Path(root)
        self.root = self.base_root / f"v{CACHE_SCHEMA}"
        # entry paths are plain strings: a probe's two pathlib joins
        # cost about as much as reading the entry
        self._prefix = os.path.join(self.root, "")

    @classmethod
    def default(cls) -> Optional["ResultCache"]:
        """The process-default cache, or ``None`` when REPRO_CACHE=0."""
        if not env.cache_enabled():
            return None
        return cls(env.cache_root())

    def _path(self, key: str) -> str:
        return f"{self._prefix}{key[:2]}{os.sep}{key}.json"

    def get(self, key: str) -> Optional[JobResult]:
        with span("cache/get"):
            return self._read(key)

    def _read(self, key: str) -> Optional[JobResult]:
        try:
            with open(self._path(key), "rb") as handle:
                payload = json.loads(handle.read())
            if payload.get("key") != key:  # stale or hash-collided entry
                return None
            return JobResult.from_json_dict(payload["result"])
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None

    @staticmethod
    def _tmp_path(path: pathlib.Path) -> pathlib.Path:
        """A writer-unique sibling temp name.

        ``path.with_suffix(".tmp")`` was shared by every writer of one
        key, so two pool workers racing on the same entry could clobber
        each other's half-written temp file. pid + a random token make
        the name unique per writer (across and within processes); the
        final ``replace`` stays atomic either way.
        """
        token = os.urandom(4).hex()
        return path.parent / f"{path.name}.{os.getpid()}-{token}.tmp"

    def put(self, key: str, result: JobResult) -> None:
        """Store ``result`` under ``key`` (last writer wins).

        Entries are immutable in *content* — every writer of one key
        holds the same deterministic result — so overwrite order never
        matters, and the atomic replace means readers never see a
        partial entry.
        """
        with span("cache/put"):
            path = pathlib.Path(self._path(key))
            tmp: Optional[pathlib.Path] = None
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                payload = {"key": key, "result": result.to_json_dict()}
                tmp = self._tmp_path(path)
                tmp.write_text(json.dumps(payload))
                tmp.replace(path)
            except OSError:
                # a read-only cache dir degrades to "no cache"; don't
                # leave an orphaned temp file behind on partial failure
                if tmp is not None:
                    try:
                        tmp.unlink(missing_ok=True)
                    except OSError:
                        pass


# ----------------------------------------------------------------------
# The executor.

def _fork_context():
    import multiprocessing
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - fork-less platform
        return None


class SweepExecutor:
    """Schedules independent experiment jobs, with caching.

    ``run`` preserves submission order, so any sweep routed through the
    executor produces identical rows at every ``jobs`` setting. With
    ``jobs > 1`` cache misses fan out over a process pool — fork-based
    where the platform offers it (workers inherit warm program caches),
    spawn otherwise. A broken pool does not restart the whole sweep:
    only the jobs the breakage swallowed are re-run, in-process.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Union[ResultCache, None, str] = "default",
        ledger: Union[RunLedger, str, os.PathLike, None] = "auto",
    ) -> None:
        self.jobs = env.jobs() if jobs is None else max(1, int(jobs))
        if cache == "default":
            self.cache: Optional[ResultCache] = ResultCache.default()
        else:
            self.cache = cache  # type: ignore[assignment]
        self.cache_hits = 0
        self.cache_misses = 0
        if isinstance(ledger, RunLedger) or ledger is None:
            self.ledger: Optional[RunLedger] = ledger
        elif ledger == "auto":
            # the run ledger lives under the cache root; no cache means
            # no durable root to write under, hence no ledger
            self.ledger = (RunLedger.at_root(self.cache.base_root)
                           if self.cache is not None else None)
        else:
            self.ledger = RunLedger(ledger)
        #: Cumulative wall time of every ``run`` call on this executor.
        self.wall_time_s = 0.0
        #: Ledger ids appended by this executor, oldest first.
        self.run_ids: List[str] = []
        #: Active span capture while a recorded sweep is in flight (see
        #: repro.obs.capture).
        self._capture: Optional[TraceCapture] = None

    def run(self, jobs: Sequence[ExperimentJob]) -> List[JobResult]:
        """Run every job, returning results in submission order.

        With a ledger, a non-empty sweep is recorded as one ledger
        entry carrying its span totals; without one, or when the sweep
        raises, it records nothing.
        """
        jobs = list(jobs)
        started = time.perf_counter()
        hits_before, misses_before = self.cache_hits, self.cache_misses
        if self.ledger is None or not jobs:
            results = self._resolve(jobs)
            self.wall_time_s += time.perf_counter() - started
            return results
        capture = self._capture = TraceCapture.begin()
        try:
            with span("sweep/run"):
                results = self._resolve(jobs)
            spans = capture.close()
            wall = time.perf_counter() - started
            self.wall_time_s += wall
            self._record_run(jobs, results,
                             hits=self.cache_hits - hits_before,
                             misses=self.cache_misses - misses_before,
                             wall=wall, spans=spans)
            return results
        finally:
            self._capture = None
            capture.seal()

    def _resolve(self, jobs: List[ExperimentJob]) -> List[JobResult]:
        results: List[Optional[JobResult]] = [None] * len(jobs)
        pending: List[int] = []
        keys: List[Optional[str]] = [None] * len(jobs)
        for index, job in enumerate(jobs):
            key = job.cache_key() if self.cache is not None else None
            keys[index] = key
            cached = self.cache.get(key) if key else None
            if cached is not None:
                results[index] = dataclasses.replace(cached, from_cache=True)
                self.cache_hits += 1
            else:
                if key:
                    self.cache_misses += 1
                pending.append(index)
        if pending:
            for index, result in zip(pending, self._execute(
                    [jobs[i] for i in pending])):
                results[index] = result
                if keys[index] and self.cache is not None:
                    self.cache.put(keys[index], result)
        return results  # type: ignore[return-value]

    # -- telemetry ------------------------------------------------------

    @staticmethod
    def _workload_descriptor(job: ExperimentJob) -> Dict[str, object]:
        workload = job.workload
        if isinstance(workload, WorkloadSpec):
            return {"kind": "workload", "name": workload.name,
                    "seed": workload.seed, "scale": workload.scale}
        if isinstance(workload, TraceShardSpec):
            return {"kind": "shard", "name": workload.name,
                    "checksum": workload.checksum}
        return {"kind": "program"}

    @staticmethod
    def _headline(results: Sequence[JobResult]) -> Dict[str, Optional[float]]:
        """Unweighted mean of every rate present, plus mean ipc.

        Computed from results in submission order with order-insensitive
        arithmetic, so the headline block is deterministic across
        ``jobs`` settings.
        """
        sums: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for result in results:
            for name, value in result.rates.items():
                if value is None:
                    continue
                sums[name] = sums.get(name, 0.0) + value
                counts[name] = counts.get(name, 0) + 1
        headline: Dict[str, Optional[float]] = {
            name: round(sums[name] / counts[name], 6)
            for name in sorted(sums)
        }
        timed = [r.ipc for r in results if r.cycles > 0]
        if timed:
            headline["ipc"] = round(sum(timed) / len(timed), 6)
        return headline

    @staticmethod
    def sweep_metrics(jobs: Sequence[ExperimentJob],
                      results: Sequence[JobResult]) -> Dict[str, int]:
        """The deterministic counters of one finished sweep, by key.

        Counted purely from ``(job, result)`` pairs in submission order
        — never from ambient worker state, and never from scheduling
        parameters like the worker count (that is the ledger entry's
        ``jobs`` field) — so a parallel sweep counts bit-identically to
        a serial one.
        """
        counters: Dict[str, int] = {}
        totals: Dict[str, int] = {}

        def count(key: str, value: int = 1) -> None:
            counters[key] = counters.get(key, 0) + value

        for job, result in zip(jobs, results):
            count(metric_key("executor.jobs", {"engine": result.engine}))
            if result.from_cache:
                count("executor.cache_hits")
            elif job.cacheable:
                count("executor.cache_misses")
            else:
                count("executor.uncached_jobs")
            count("executor.instructions", result.instructions)
            for name, value in result.counters.items():
                totals[name] = totals.get(name, 0) + value
        for name, value in totals.items():
            counters[f"result.{name}"] = value
        return dict(sorted(counters.items()))

    def _record_run(self, jobs: List[ExperimentJob],
                    results: List[JobResult],
                    hits: int, misses: int, wall: float,
                    spans: Dict[str, Dict[str, float]]) -> None:
        seen: Dict[tuple, Dict[str, object]] = {}
        for job in jobs:
            descriptor = self._workload_descriptor(job)
            # repr keeps 1 and 1.0 (or True) apart, as a JSON key would
            seen.setdefault(tuple(map(repr, descriptor.values())), descriptor)
        probed = hits + misses
        entry: Dict[str, object] = {
            "kind": "sweep",
            "ts": round(time.time(), 3),
            "utc": datetime.datetime.now(datetime.timezone.utc).strftime(
                "%Y-%m-%dT%H:%M:%SZ"),
            "engines": sorted({result.engine for result in results}),
            "jobs": self.jobs,
            "submitted": len(jobs),
            "workloads": list(seen.values()),
            "configs": sorted({job.config.fingerprint() for job in jobs}),
            "code": code_fingerprint(),
            "cache": {
                "hits": hits,
                "misses": misses,
                "hit_rate": (round(hits / probed, 6) if probed else None),
            },
            "wall_time_s": round(wall, 6),
            "sim_time_s": round(sum(r.wall_time_s for r in results), 6),
            "headline": self._headline(results),
            "metrics": {"counters": self.sweep_metrics(jobs, results)},
            # the cost split is timing, not a result: it sits behind
            # NONDETERMINISTIC_KEYS with wall_time_s
            "spans": spans,
        }
        entry = self.ledger.append(entry)  # type: ignore[union-attr]
        self.run_ids.append(str(entry["run_id"]))

    def cache_stats(self) -> Dict[str, object]:
        """Cumulative cache statistics for CLI/JSON summaries."""
        probed = self.cache_hits + self.cache_misses
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "hit_rate": (round(self.cache_hits / probed, 6)
                         if probed else None),
        }

    def summary_line(self) -> Optional[str]:
        """One human line: cache hits/misses, wall time, last run id."""
        probed = self.cache_hits + self.cache_misses
        if probed == 0 and self.wall_time_s == 0.0:
            return None
        rate = (f"{100.0 * self.cache_hits / probed:.1f}% hit rate"
                if probed else "no cacheable jobs")
        parts = [f"cache: {self.cache_hits} hits, "
                 f"{self.cache_misses} misses ({rate})",
                 f"{self.wall_time_s:.2f}s"]
        if self.run_ids:
            parts.append(f"run {self.run_ids[-1]}")
        return " · ".join(parts)

    # -- execution ------------------------------------------------------

    def _execute(self, jobs: List[ExperimentJob]) -> List[JobResult]:
        if self.jobs > 1 and len(jobs) > 1:
            try:
                return self._execute_pool(jobs)
            except OSError:
                pass  # e.g. sandboxed semaphores; fall through to serial
        return [run_job(job) for job in jobs]

    # The pool factory is an attribute so tests can inject pools that
    # fail deterministically (see tests/test_cluster.py).
    @staticmethod
    def _pool_factory(max_workers: int, **kwargs):
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor(max_workers=max_workers, **kwargs)

    def _make_pool(self, workers: int):
        # The pool stack (multiprocessing, concurrent.futures.process)
        # is imported here, with the first pool: a sweep that runs
        # in-process never loads it.
        context = _fork_context()
        kwargs = {"mp_context": context} if context is not None else {}
        return self._pool_factory(max_workers=workers, **kwargs)

    def _execute_pool(self, jobs: List[ExperimentJob]) -> List[JobResult]:
        """Fan jobs over one process pool.

        A ``BrokenProcessPool`` (a worker OOM-killed or segfaulted)
        keeps every result that did finish; only the jobs the breakage
        swallowed re-run, in-process and in submission order.
        """
        import concurrent.futures

        results: List[Optional[JobResult]] = [None] * len(jobs)
        broken: List[int] = []
        # in a recorded sweep each pool job counts its spans in a capture
        # of its own, whose totals come home with the result
        capture = self._capture
        with self._make_pool(min(self.jobs, len(jobs))) as pool:
            futures: Dict[int, concurrent.futures.Future] = {}
            for index, job in enumerate(jobs):
                try:
                    futures[index] = pool.submit(
                        run_job if capture is None else _run_job_traced, job)
                except (concurrent.futures.BrokenExecutor, RuntimeError):
                    broken.append(index)
            for index, future in futures.items():
                try:
                    outcome = future.result()
                except concurrent.futures.BrokenExecutor:
                    broken.append(index)
                    continue
                if capture is not None:
                    outcome, totals = outcome
                    capture.add(totals)
                results[index] = outcome
        for index in sorted(broken):
            results[index] = run_job(jobs[index])
        return results  # type: ignore[return-value]
