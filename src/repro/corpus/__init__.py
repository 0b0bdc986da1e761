"""Durable, sharded, compressed control-flow trace corpora.

This package is the data-pipeline backbone for trace-driven
experiments: a directory of chunked v2 trace shards plus a JSON
manifest (:mod:`repro.corpus.store`, :mod:`repro.corpus.manifest`),
streaming ingestion from the reference emulator or from external
ChampSim traces (:mod:`repro.corpus.champsim`), and executor-routed
capacity sweeps over whole corpora (:mod:`repro.corpus.replay`).
See docs/traces.md for formats, schema, and CLI examples
(``repro-sim corpus build|import|info|verify|replay``).
"""

from repro.corpus.champsim import (
    ImportStats,
    champsim_events,
    classify_branch,
    iter_champsim_records,
)
from repro.corpus.diffcheck import (
    DiffReport,
    ReferenceReturnStack,
    diff_corpus,
    diff_events,
    diff_shard,
)
from repro.corpus.manifest import (
    MANIFEST_SCHEMA,
    CorpusManifest,
    ShardRecord,
)
from repro.corpus.replay import (
    DEFAULT_SIZES,
    REPORT_MECHANISMS,
    corpus_depth_results,
    corpus_depth_sweep,
    corpus_report,
)
from repro.corpus.store import (
    CorpusStore,
    workload_shard_name,
)
from repro.errors import CorpusError, DivergenceError

__all__ = [
    "CorpusError",
    "CorpusManifest",
    "CorpusStore",
    "DEFAULT_SIZES",
    "DiffReport",
    "DivergenceError",
    "ImportStats",
    "MANIFEST_SCHEMA",
    "REPORT_MECHANISMS",
    "ReferenceReturnStack",
    "ShardRecord",
    "champsim_events",
    "classify_branch",
    "corpus_depth_results",
    "corpus_depth_sweep",
    "corpus_report",
    "diff_corpus",
    "diff_events",
    "diff_shard",
    "iter_champsim_records",
    "workload_shard_name",
]
