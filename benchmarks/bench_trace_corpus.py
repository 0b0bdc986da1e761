"""Corpus pipeline: build a sharded trace corpus, then sweep it.

Runs the full data path the corpus subsystem adds: streaming
ingestion (emulator -> compressed v2 shards + manifest) followed by an
executor-routed stack-depth sweep over every shard. Caching is
disabled so every run does real ingest + replay work.
"""

from repro.core.executor import SweepExecutor
from repro.core.experiment import WorkloadSpec
from repro.corpus import CorpusStore, corpus_depth_sweep

_SIZES = (1, 4, 16, 64)
_NAMES = ("li", "vortex")


def test_bench_trace_corpus(emit, bench_seed, bench_scale, tmp_path):
    store = CorpusStore.create(tmp_path / "corpus")
    store.build_from_specs(
        [WorkloadSpec(name, bench_seed, bench_scale) for name in _NAMES])
    table = corpus_depth_sweep(store, _SIZES,
                               executor=SweepExecutor(cache=None))
    emit("trace_corpus", table)
    title, headers, rows = table
    assert len(rows) == len(_NAMES)
    for row in rows:
        name, *accuracies, returns = row
        assert returns > 0, name
        # Capacity story: the 64-entry stack must beat the 1-entry one.
        assert accuracies[-1] > accuracies[0], name
