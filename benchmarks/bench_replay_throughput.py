"""Replay throughput: the event-at-a-time oracle vs the batch engine.

Builds a small corpus, then runs the paper's capacity-sweep shape (one
decode pass evaluating the full stack-size grid) two ways: streamed
event by event through the oracle
(:func:`repro.trace.replay.replay_events_multi` over
:func:`repro.trace.format.iter_trace_file`) and through the
block-decoded batch engine
(:func:`repro.fastsim.batch.replay_shard_batched_multi`).

The test asserts the batch engine's contract: bit-identical counters
at >= 3x the streaming throughput. The floor compares two engines in
one process; the ``corpus-replay`` workload of ``benchmarks/perf``
measures replay speed end to end.
"""

import time

from repro.core.experiment import WorkloadSpec
from repro.corpus import CorpusStore
from repro.fastsim.batch import decoder_backend, replay_shard_batched_multi
from repro.trace import iter_trace_file, replay_events_multi

_SIZES = (1, 2, 4, 8, 12, 16, 32, 64)
_NAMES = ("li", "vortex", "perl")
#: Timed decode passes per engine; totals absorb scheduler noise.
_ROUNDS = 3

#: The contract the batch engine must hold (docs/performance.md §5).
MIN_SPEEDUP = 3.0


def _replay_streamed(shard, sizes):
    return replay_events_multi(iter_trace_file(shard.path), sizes)


def _time_engine(shards, replay_multi):
    results = {}
    started = time.perf_counter()
    for _ in range(_ROUNDS):
        for shard in shards:
            results[shard.name] = replay_multi(shard, _SIZES)
    return time.perf_counter() - started, results


def test_bench_replay_throughput(emit, bench_seed, bench_scale, tmp_path):
    store = CorpusStore.create(tmp_path / "corpus")
    store.build_from_specs(
        [WorkloadSpec(name, bench_seed, bench_scale) for name in _NAMES])
    shards = store.specs()
    events_per_pass = sum(shard.events for shard in shards)
    # numpy loads at the first block decode; load it before the clock
    # starts, so the floor compares replay, not a one-time import
    decoder_backend()

    stream_wall, stream_results = _time_engine(shards, _replay_streamed)
    batch_wall, batch_results = _time_engine(
        shards, replay_shard_batched_multi)
    rows = []
    for engine, decoder, wall in (
            ("stream", "objects", stream_wall),
            ("batch", decoder_backend(), batch_wall)):
        rows.append([
            engine, decoder, len(shards), len(_SIZES), events_per_pass,
            round(wall, 4),
            round(events_per_pass * _ROUNDS / wall / 1000.0, 1),
            round(stream_wall / wall, 2),
        ])
    title = (f"Replay throughput: stream vs batch "
             f"({_ROUNDS} passes, {len(_SIZES)}-size grid)")
    headers = ["engine", "decoder", "shards", "sizes", "events/pass",
               "wall s", "kevents/s", "speedup vs stream"]
    table = (title, headers, rows)
    emit("replay_throughput", table)
    assert [row[0] for row in rows] == ["stream", "batch"]

    # Differential parity: the speedup must be free.
    for name, by_size in stream_results.items():
        for size, reference in by_size.items():
            batched = batch_results[name][size]
            assert (reference.returns, reference.hits, reference.overflows,
                    reference.underflows) == \
                   (batched.returns, batched.hits, batched.overflows,
                    batched.underflows), (name, size)

    speedup = table[2][-1][-1]
    assert speedup >= MIN_SPEEDUP, (
        f"batch engine replayed only {speedup}x faster than the streaming "
        f"oracle; the contract is >= {MIN_SPEEDUP}x")
