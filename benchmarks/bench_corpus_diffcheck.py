"""Differential cross-validation over an imported corpus.

Runs the diffcheck harness end to end: import the checked-in sample
ChampSim trace into a fresh corpus, then replay every shard through
both the production champsim lane and the reference transliteration
(:mod:`repro.corpus.diffcheck`). Caching is disabled so the dual-model
replay really runs, and the assertions are the acceptance bar: zero
divergences on every shard.
"""

import pathlib

from repro.core.executor import SweepExecutor
from repro.corpus import CorpusStore, diff_corpus

_SAMPLE = (pathlib.Path(__file__).resolve().parents[1]
           / "tests" / "data" / "sample_champsim.trace.xz")


def test_bench_corpus_diffcheck(emit, tmp_path):
    store = CorpusStore.create(tmp_path / "corpus")
    store.import_champsim(_SAMPLE, name="sample")
    reports = diff_corpus(store, executor=SweepExecutor(cache=None))
    headers = ["shard", "events", "returns", "ours hits", "reference hits",
               "divergences"]
    rows = [[r.shard, r.events, r.returns, r.ours_hits, r.reference_hits,
             r.divergences] for r in reports]
    emit("corpus_diffcheck",
         ("Differential check (champsim vs reference)", headers, rows))
    assert reports, "no shards were diffed"
    for report in reports:
        report.ensure()  # zero divergences, or raise with context
        assert report.returns > 0
        assert report.ours_hits == report.reference_hits
