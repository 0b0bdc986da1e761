"""Corpus-driven experiment entry points.

Thin layer joining :class:`~repro.corpus.store.CorpusStore` to the
:class:`~repro.core.executor.SweepExecutor`: pick shards, fan one
``"batch"`` job per ``shard x stack size`` (or ``shard x mechanism``)
over the executor (parallel, cached by shard checksum), and shape the
results as either raw counter dicts (for tests and programmatic use)
or a rendered table (for the CLI and benchmarks).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config.defaults import baseline_config
from repro.config.options import RepairMechanism
from repro.core.executor import ExperimentJob, JobResult, SweepExecutor
from repro.corpus.store import CorpusStore

#: Default stack sizes for corpus capacity sweeps (the paper's F3 grid).
DEFAULT_SIZES = (1, 2, 4, 8, 12, 16, 32, 64)

TableData = Tuple[str, List[str], List[List[object]]]


def corpus_depth_results(
    store: CorpusStore,
    sizes: Sequence[int] = DEFAULT_SIZES,
    mechanism: RepairMechanism = RepairMechanism.NONE,
    executor: Optional[SweepExecutor] = None,
    names: Optional[Iterable[str]] = None,
) -> Dict[str, Dict[int, JobResult]]:
    """Raw per-shard, per-size replay results for ``store``.

    One executor job per ``shard x size`` — the unit the result cache
    keys on (shard checksum + config fingerprint + engine), so
    re-sweeping an unchanged corpus is pure cache hits and adding one
    shard only replays that shard. Results carry the full
    return/overflow counters keyed by shard name then stack size.
    """
    if executor is None:
        executor = SweepExecutor()
    repaired = baseline_config().with_repair(mechanism)
    shards = store.specs(names=names)
    sizes = list(sizes)
    jobs = [ExperimentJob(shard, repaired.with_ras_entries(size), "batch")
            for shard in shards for size in sizes]
    results = executor.run(jobs)
    swept: Dict[str, Dict[int, JobResult]] = {}
    for index, shard in enumerate(shards):
        chunk = results[index * len(sizes):(index + 1) * len(sizes)]
        swept[shard.name] = dict(zip(sizes, chunk))
    return swept


def corpus_depth_sweep(
    store: CorpusStore,
    sizes: Sequence[int] = DEFAULT_SIZES,
    mechanism: RepairMechanism = RepairMechanism.NONE,
    executor: Optional[SweepExecutor] = None,
    names: Optional[Iterable[str]] = None,
) -> TableData:
    """Stack-depth sweep over a corpus, shaped like the F3 table.

    Rows mirror :func:`repro.core.tables.fig_stack_depth`: one row per
    shard, one return-hit-rate percentage column per stack size, plus
    the shard's return count for scale.
    """
    results = corpus_depth_results(store, sizes, mechanism=mechanism,
                                   executor=executor, names=names)
    rows: List[List[object]] = []
    for name, by_size in results.items():
        row: List[object] = [name]
        returns = 0
        for size in sizes:
            result = by_size[size]
            returns = result.counter("returns")
            accuracy = result.return_accuracy
            row.append(None if accuracy is None else round(100 * accuracy, 2))
        row.append(returns)
        rows.append(row)
    headers = (["shard"] + [f"{size}-entry %" for size in sizes]
               + ["returns"])
    title = (f"Corpus stack-depth sweep ({mechanism}, "
             f"{len(results)} shards)")
    return title, headers, rows


#: Mechanisms the headline report compares per shard: the pc+4 baseline
#: against the ChampSim call-size-calibrated variant, so the
#: calibration win on variable-length-ISA traces is the table's point.
REPORT_MECHANISMS = (RepairMechanism.NONE, RepairMechanism.CHAMPSIM)


def corpus_report(
    store: CorpusStore,
    ras_entries: int = 64,
    executor: Optional[SweepExecutor] = None,
    names: Optional[Iterable[str]] = None,
    mechanisms: Sequence[RepairMechanism] = REPORT_MECHANISMS,
) -> TableData:
    """The corpus-wide headline table: every shard, every mechanism.

    One ``shard x mechanism`` job fans over the executor (cached by
    shard checksum). Columns hold the per-shard return counts plus one
    return-accuracy percentage per mechanism — on real imported traces
    the gap between ``none`` and ``champsim`` is the measurable win of
    call-size calibration
    (``ImportStats.offset_mismatches`` counts the returns at stake).
    """
    if executor is None:
        executor = SweepExecutor()
    specs = store.specs(names=names)
    base = baseline_config().with_ras_entries(ras_entries)
    jobs = [
        ExperimentJob(spec, base.with_repair(mechanism), "batch")
        for spec in specs for mechanism in mechanisms
    ]
    results = executor.run(jobs)
    rows: List[List[object]] = []
    for index, spec in enumerate(specs):
        row: List[object] = [
            spec.name, spec.events or 0, spec.calls or 0,
            spec.returns or 0,
        ]
        for offset in range(len(mechanisms)):
            accuracy = results[index * len(mechanisms) + offset] \
                .return_accuracy
            row.append(None if accuracy is None
                       else round(100 * accuracy, 2))
        rows.append(row)
    headers = (["shard", "events", "calls", "returns"]
               + [f"{mechanism.value} %" for mechanism in mechanisms])
    title = (f"Corpus report ({len(specs)} shards, "
             f"{ras_entries}-entry RAS)")
    return title, headers, rows
