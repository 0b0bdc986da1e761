"""Outside-in per-layer tracer for the benchmark's traced runs.

Nothing in ``repro`` knows it is being traced: :class:`Tracer` replaces
each layer's public function at the place its caller looks it up (a
module global or a class attribute), times every call, and puts the
originals back on exit. A layer's self time is its call's duration
minus the time of the traced calls made inside it. Generator functions
are timed per ``next()``, so a lazily consumed decoder is charged for
the blocks it produces, not for the lifetime of the iterator.

A site that no longer exists (a later change deleted or renamed it) is
reported as absent instead of failing the run, so the end-to-end
numbers survive layer removals.

Calls to the layers in :data:`RECORDED` are kept as spans in memory
(``write_jsonl`` dumps them when the run ends); every other layer runs
once per instruction, event or job, so only its totals are kept.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

#: ``module:attr``, ``module:Class.attr``, or ``module:Class+.attr`` for
#: the attribute as defined on every subclass of ``Class`` -> layer.
SITES: Tuple[Tuple[str, str], ...] = (
    ("repro.pipeline.cpu:SinglePathCPU.run", "pipeline"),
    ("repro.multipath.cpu:MultipathCPU.run", "multipath"),
    ("repro.bpred.predictor:FrontEndPredictor.predict", "bpred"),
    ("repro.bpred.predictor:FrontEndPredictor.repair", "bpred"),
    ("repro.bpred.predictor:FrontEndPredictor.release", "bpred"),
    ("repro.bpred.predictor:FrontEndPredictor.train_commit", "bpred"),
    ("repro.bpred.ras:BaseRas+.push", "bpred.ras"),
    ("repro.bpred.ras:BaseRas+.pop", "bpred.ras"),
    ("repro.bpred.ras:BaseRas+.checkpoint", "bpred.ras"),
    ("repro.bpred.ras:BaseRas+.restore", "bpred.ras"),
    ("repro.bpred.ras:BaseRas+.clone", "bpred.ras"),
    ("repro.caches.hierarchy:MemoryHierarchy.fetch_instruction", "caches"),
    ("repro.caches.hierarchy:MemoryHierarchy.access_data", "caches"),
    ("repro.pipeline.cpu:execute", "emu.execute"),
    ("repro.multipath.cpu:execute", "emu.execute"),
    ("repro.trace.format:TraceReader.iter_raw_blocks", "trace.read"),
    ("repro.fastsim.batch:iter_event_batches", "batch.decode"),
    ("repro.core.executor:replay_shard_batched", "batch.replay"),
    ("repro.corpus.store:CorpusStore.build_from_specs", "corpus.build"),
    ("repro.trace.format:TraceWriter.append", "trace.write"),
    ("repro.trace.format:TraceWriter.close", "trace.write"),
    ("repro.core.experiment:build_workload", "workloads.build"),
    ("repro.cli:main", "cli"),
    ("repro.core.tables:fig_hit_rates", "tables"),
    ("repro.core.tables:fig_speedup", "tables"),
    ("repro.core.tables:fig_stack_depth", "tables"),
    ("repro.core.tables:fig_multipath", "tables"),
    ("repro.core.tables:ablation_mechanisms", "tables"),
    ("repro.core.executor:SweepExecutor.run", "executor.sweep"),
    ("repro.core.executor:ExperimentJob.cache_key", "executor.cache_key"),
    ("repro.core.executor:ResultCache.get", "executor.cache_get"),
    ("repro.core.executor:ResultCache.put", "executor.cache_put"),
    ("repro.telemetry.ledger:RunLedger.append", "telemetry.ledger"),
    ("repro.obs.capture:TraceCapture.begin", "obs.capture"),
    ("repro.obs.capture:TraceCapture.seal", "obs.capture"),
    ("repro.obs.capture:TraceCapture.close", "obs.capture"),
)

#: Every layer, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for _, layer in SITES))

#: Layers called at most a few times per job; each call becomes a span.
RECORDED = frozenset({
    "pipeline", "multipath", "batch.replay", "corpus.build",
    "workloads.build", "cli", "tables", "executor.sweep",
    "telemetry.ledger",
})


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop(0)
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return found


def _resolve(site: str) -> List[Tuple[object, str]]:
    """The ``(owner, attribute)`` pairs a site names; empty if absent."""
    module_name, _, path = site.partition(":")
    try:
        owner: object = importlib.import_module(module_name)
    except ImportError:
        return []
    *classes, attr = path.split(".")
    every_subclass = False
    for name in classes:
        every_subclass = name.endswith("+")
        owner = getattr(owner, name.rstrip("+"), None)
        if not isinstance(owner, type):
            return []
    owners = _subclasses(owner) if every_subclass else [owner]
    return [(cls, attr) for cls in owners if attr in vars(cls)]


class Tracer:
    """Wraps every site in :data:`SITES` while active (a context manager).

    ``totals`` maps layer -> ``[calls, self_s, opens]``; for a generator
    site ``calls`` counts items produced and ``opens`` counts iterators
    started. ``spans`` holds one dict per call of a :data:`RECORDED`
    layer: ``id``, ``parent`` (nearest recorded caller), ``root`` (the
    outermost one, i.e. the command), ``layer``, ``start``, ``dur`` and
    ``self`` in seconds.
    """

    def __init__(self) -> None:
        self.totals: Dict[str, List[float]] = {
            layer: [0, 0.0, 0] for layer in LAYERS}
        self.spans: List[Dict[str, object]] = []
        self.absent: List[str] = []
        self.started = 0.0
        self.stopped = 0.0
        # open calls, innermost last: [child seconds, span id or None]
        self._stack: List[list] = []
        self._originals: List[Tuple[object, str, object]] = []

    # -- install / restore ---------------------------------------------

    def __enter__(self) -> "Tracer":
        for site, layer in SITES:
            targets = _resolve(site)
            if not targets:
                self.absent.append(site)
            for owner, attr in targets:
                raw = vars(owner)[attr]
                self._originals.append((owner, attr, raw))
                setattr(owner, attr, self._wrap_raw(layer, raw))
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stopped = time.perf_counter()
        while self._originals:
            owner, attr, raw = self._originals.pop()
            setattr(owner, attr, raw)

    def _wrap_raw(self, layer: str, raw: object) -> object:
        if isinstance(raw, (classmethod, staticmethod)):
            return type(raw)(self._wrap(layer, raw.__func__))
        return self._wrap(layer, raw)  # type: ignore[arg-type]

    # -- timing ----------------------------------------------------------

    def _enter(self, record: bool, layer: str) -> list:
        span_id = None
        if record:
            span_id = len(self.spans)
            ancestors = [frame[1] for frame in self._stack
                         if frame[1] is not None]
            self.spans.append({
                "id": span_id,
                "parent": ancestors[-1] if ancestors else None,
                "root": ancestors[0] if ancestors else span_id,
                "layer": layer,
            })
        frame = [0.0, span_id]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, total: list, start: float,
               elapsed: float, produced: int) -> None:
        self._stack.pop()
        total[0] += produced
        total[1] += elapsed - frame[0]
        if self._stack:
            self._stack[-1][0] += elapsed
        if frame[1] is not None:
            self.spans[frame[1]].update(
                start=round(start - self.started, 6),
                dur=round(elapsed, 6),
                self=round(elapsed - frame[0], 6))

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        total = self.totals[layer]
        record = layer in RECORDED
        clock = time.perf_counter
        enter, leave = self._enter, self._leave

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                total[2] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        frame = enter(record, layer)
                        start = clock()
                        produced = 0
                        try:
                            item = next(inner)
                            produced = 1
                        except StopIteration:
                            return
                        finally:
                            leave(frame, total, start, clock() - start,
                                  produced)
                        yield item
                finally:
                    inner.close()
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(record, layer)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame, total, start, clock() - start, 1)
        return traced

    # -- results ---------------------------------------------------------

    @property
    def wall_s(self) -> float:
        return (self.stopped or time.perf_counter()) - self.started

    def table(self) -> List[Dict[str, object]]:
        """Per layer: calls, iterators opened, self seconds, share of the
        traced wall time in percent."""
        wall = self.wall_s or 1e-9
        return [{"layer": layer, "calls": int(calls),
                 "opens": int(opens), "self_s": round(self_s, 6),
                 "share": round(100.0 * self_s / wall, 4)}
                for layer, (calls, self_s, opens) in self.totals.items()]

    def write_jsonl(self, path: str, extra: Optional[dict] = None) -> None:
        """Spans, one per line, then one ``layers`` summary line."""
        with open(path, "w") as handle:
            for item in self.spans:
                handle.write(json.dumps(item) + "\n")
            summary = {"layers": self.table(), "absent": self.absent,
                       "wall_s": round(self.wall_s, 6), **(extra or {})}
            handle.write(json.dumps(summary) + "\n")


def render(rows: List[Dict[str, object]]) -> str:
    """The per-layer table as aligned text, busiest layer first."""
    lines = [f"{'layer':<20}{'calls':>12}{'self_s':>12}{'share %':>10}"]
    for row in sorted(rows, key=lambda row: -float(row["self_s"])):
        lines.append(f"{row['layer']:<20}{row['calls']:>12}"
                     f"{row['self_s']:>12.4f}{row['share']:>10.2f}")
    return "\n".join(lines)
