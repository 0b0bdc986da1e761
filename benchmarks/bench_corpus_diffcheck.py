"""Differential cross-validation throughput over an imported corpus.

Times the diffcheck harness end to end: import the checked-in sample
ChampSim trace into a fresh corpus, then replay every shard through
both the production champsim lane and the reference transliteration
(:mod:`repro.corpus.diffcheck`). Caching is disabled so the timing
reflects the real dual-model replay, and the assertions double as the
acceptance bar: zero divergences on every shard.
"""

import itertools
import pathlib

from repro.core.executor import SweepExecutor
from repro.corpus import CorpusStore, diff_corpus

_SAMPLE = (pathlib.Path(__file__).resolve().parents[1]
           / "tests" / "data" / "sample_champsim.trace.xz")
_ROUND = itertools.count()


def test_bench_corpus_diffcheck(benchmark, emit, tmp_path):
    def import_and_diff():
        store = CorpusStore.create(tmp_path / f"corpus{next(_ROUND)}")
        store.import_champsim(_SAMPLE, name="sample")
        executor = SweepExecutor(cache=None)
        reports = diff_corpus(store, executor=executor)
        headers = ["shard", "events", "returns", "ours hits",
                   "reference hits", "divergences"]
        rows = [[r.shard, r.events, r.returns, r.ours_hits,
                 r.reference_hits, r.divergences] for r in reports]
        return ("Differential check (champsim vs reference)",
                headers, rows), reports

    table, reports = benchmark.pedantic(import_and_diff, rounds=1,
                                        iterations=1)
    emit("corpus_diffcheck", table)
    assert reports, "no shards were diffed"
    for report in reports:
        report.ensure()  # zero divergences, or raise with context
        assert report.returns > 0
        assert report.ours_hits == report.reference_hits
