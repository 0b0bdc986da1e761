"""Differential parity for the batched trace-replay engine.

The batch engine (:mod:`repro.fastsim.batch`) exists only for speed;
its contract is bit-identical counters versus the event-at-a-time
oracle (:func:`repro.trace.replay.replay_events`) on every trace,
every repair mechanism, every stack size, and the same typed errors on
malformed input. These tests hold that contract with randomized
workloads (property-style over seeds and structured random traces),
the checked-in ChampSim sample corpus, and both block decoders (numpy
and stdlib, the latter forced by hiding numpy from
:mod:`repro.fastsim.batch`).
"""

import io
import json
import pathlib
import random
import struct

import pytest

import repro.fastsim.batch
from repro.config.defaults import baseline_config
from repro.config.options import RepairMechanism
from repro.core import WorkloadSpec, build_program
from repro.core.executor import ExperimentJob, ResultCache, SweepExecutor
from repro.corpus import CorpusStore, corpus_depth_results, corpus_depth_sweep
from repro.cli import main as cli_main
from repro.fastsim.batch import (
    decoder_backend,
    iter_event_batches,
    replay_shard_batched,
    replay_shard_batched_multi,
)
from repro.isa.opcodes import ControlClass
from repro.trace import (
    ControlFlowEvent,
    TraceFormatError,
    TraceReader,
    iter_trace_file,
    record_trace,
    write_trace,
)
from repro.trace.replay import replay_events, replay_events_multi

DATA = pathlib.Path(__file__).parent / "data"
SAMPLE_CHAMPSIM = DATA / "sample_champsim.trace.xz"

MECHANISMS = list(RepairMechanism)
SIZES = (1, 2, 3, 8, 16, 64)


def counters(result):
    return (result.returns, result.hits, result.overflows,
            result.underflows)


def random_trace(seed, length=300):
    """A structured random control-flow trace.

    Calls push onto a shadow stack; most returns pop the matching
    address (so hit rate is capacity-bound, like real programs), a few
    return to a wrong address or fire on an empty stack (underflows);
    branches and jumps are interleaved as RAS-inert noise.
    """
    rng = random.Random(seed)
    stack = []
    events = []
    pc = 0x1000
    for _ in range(length):
        roll = rng.random()
        if roll < 0.35:
            call = rng.choice(
                (ControlClass.CALL_DIRECT, ControlClass.CALL_INDIRECT))
            target = rng.randrange(0x100000, 0x200000, 4)
            events.append(ControlFlowEvent(call, pc, target,
                                           gap=rng.randrange(0, 6)))
            stack.append(pc + 4)
            pc = target
        elif roll < 0.70:
            if stack and rng.random() < 0.9:
                target = stack.pop()
            else:
                target = rng.randrange(0x100000, 0x200000, 4)
            events.append(ControlFlowEvent(ControlClass.RETURN, pc, target,
                                           gap=rng.randrange(0, 6)))
            pc = target
        else:
            noise = rng.choice(
                (ControlClass.COND_BRANCH, ControlClass.JUMP_DIRECT,
                 ControlClass.JUMP_INDIRECT))
            target = rng.randrange(0x100000, 0x200000, 4)
            events.append(ControlFlowEvent(noise, pc, target,
                                           gap=rng.randrange(0, 6)))
            pc = target
    return events


def trace_bytes(events, block_events=64):
    buffer = io.BytesIO()
    write_trace(buffer, events, block_events=block_events)
    return buffer.getvalue()


def trace_file(directory, events, block_events=64):
    path = directory / "t.rastrace"
    path.write_bytes(trace_bytes(events, block_events))
    return path


@pytest.fixture(params=["numpy", "python"])
def decoder(request, monkeypatch):
    if request.param == "python":
        monkeypatch.setattr(repro.fastsim.batch, "_np", None)
    elif decoder_backend() == "python":  # the first call tries numpy
        pytest.skip("numpy not available")
    assert decoder_backend() == request.param
    return request.param


class TestBatchDecode:
    def test_batches_carry_exactly_the_stack_events(self, decoder):
        events = random_trace(seed=7)
        raw = trace_bytes(events, block_events=64)
        flat_classes = []
        flat_pcs = []
        flat_next = []
        total = 0
        for batch in iter_event_batches(raw):
            flat_classes.extend(batch.classes)
            flat_pcs.extend(batch.pcs)
            flat_next.extend(batch.next_pcs)
            total += batch.events
        expected = [e for e in events
                    if e.control.is_call
                    or e.control is ControlClass.RETURN]
        assert total == len(events)
        assert flat_pcs == [e.pc for e in expected]
        assert flat_next == [e.next_pc for e in expected]

    def test_multiblock_v2_splits_into_physical_blocks(self, decoder):
        events = random_trace(seed=3, length=200)
        raw = trace_bytes(events, block_events=32)
        batches = list(iter_event_batches(raw))
        assert len(batches) == (len(events) + 31) // 32
        assert sum(b.events for b in batches) == len(events)

    def test_path_and_stream_sources(self, decoder, tmp_path):
        events = random_trace(seed=5, length=80)
        raw = trace_bytes(events)
        path = tmp_path / "t.rastrace"
        path.write_bytes(raw)
        by_bytes = sum(b.events for b in iter_event_batches(raw))
        by_path = sum(b.events for b in iter_event_batches(path))
        with open(path, "rb") as stream:
            by_stream = sum(b.events for b in iter_event_batches(stream))
        assert by_bytes == by_path == by_stream == len(events)


class TestErrorParity:
    """Malformed traces raise the same TraceFormatError, same message."""

    def _both_errors(self, raw):
        with pytest.raises(TraceFormatError) as reference:
            TraceReader(io.BytesIO(raw)).read_all()
        with pytest.raises(TraceFormatError) as batched:
            list(iter_event_batches(raw))
        return str(reference.value), str(batched.value)

    def test_corrupted_v2_block_same_crc_error(self, decoder):
        raw = bytearray(trace_bytes(random_trace(seed=11), block_events=64))
        # Flip a byte inside the compressed payload (past the 24-byte
        # container header and 16-byte block header).
        raw[24 + 16 + 5] ^= 0xFF
        ref_msg, batch_msg = self._both_errors(bytes(raw))
        assert "CRC mismatch" in ref_msg
        assert batch_msg == ref_msg

    def test_truncated_v2_body_same_error(self, decoder):
        full = trace_bytes(random_trace(seed=11), block_events=64)
        raw = full[:len(full) // 2]  # cut inside a block payload
        ref_msg, batch_msg = self._both_errors(raw)
        assert batch_msg == ref_msg

    def test_v1_header_same_error(self, decoder):
        # the retired flat container: magic, version 1, one event
        raw = (struct.pack("<8sII", b"RASTRACE", 1, 1)
               + struct.pack("<BIII", 0, 100, 400, 3))
        ref_msg, batch_msg = self._both_errors(raw)
        assert ref_msg == "unsupported trace version: found 1, expected 2"
        assert batch_msg == ref_msg


class TestRandomizedParity:
    """Property-style: batch == oracle on structured random traces."""

    @pytest.mark.parametrize("seed", range(6))
    def test_every_mechanism_every_size(self, decoder, seed, tmp_path):
        events = random_trace(seed)
        path = trace_file(tmp_path, events, block_events=64)
        for mechanism in MECHANISMS:
            for size in SIZES:
                reference = replay_events(events, ras_entries=size,
                                          mechanism=mechanism)
                batched = replay_shard_batched(path, ras_entries=size,
                                               mechanism=mechanism)
                assert counters(batched) == counters(reference), \
                    (seed, mechanism, size)

    @pytest.mark.parametrize("seed", range(6))
    def test_multi_size_single_pass(self, decoder, seed, tmp_path):
        events = random_trace(seed, length=400)
        path = trace_file(tmp_path, events, block_events=32)
        for mechanism in (RepairMechanism.NONE, RepairMechanism.VALID_BITS,
                          RepairMechanism.SELF_CHECKPOINT):
            reference = replay_events_multi(events, SIZES,
                                            mechanism=mechanism)
            batched = replay_shard_batched_multi(path, SIZES,
                                                 mechanism=mechanism)
            for size in SIZES:
                assert counters(batched[size]) == \
                    counters(reference[size]), (seed, mechanism, size)

    def test_empty_trace(self, decoder, tmp_path):
        result = replay_shard_batched(trace_file(tmp_path, []),
                                      ras_entries=8)
        assert counters(result) == (0, 0, 0, 0)
        assert result.accuracy is None


class TestShardParity:
    """Batch == oracle on real shards."""

    def _store(self, tmp_path, with_sample=False):
        store = CorpusStore.create(tmp_path / "corpus")
        store.build_from_specs([WorkloadSpec("li", 1, 0.05),
                                WorkloadSpec("vortex", 1, 0.05)])
        if with_sample:
            store.import_champsim(SAMPLE_CHAMPSIM, name="sample")
        return store

    def test_sample_corpus_bit_identical(self, decoder, tmp_path):
        store = self._store(tmp_path, with_sample=True)
        for shard in store.specs():
            for mechanism in MECHANISMS:
                for size in (1, 4, 32):
                    reference = replay_events(iter_trace_file(shard.path),
                                              ras_entries=size,
                                              mechanism=mechanism)
                    batched = replay_shard_batched(shard, ras_entries=size,
                                                   mechanism=mechanism)
                    assert counters(batched) == counters(reference), \
                        (shard.name, mechanism, size)

    def test_shard_multi_matches_streaming_multi(self, decoder, tmp_path):
        store = self._store(tmp_path)
        for shard in store.specs():
            reference = replay_events_multi(iter_trace_file(shard.path),
                                            SIZES)
            batched = replay_shard_batched_multi(shard, SIZES)
            for size in SIZES:
                assert counters(batched[size]) == counters(reference[size])

    def test_workload_parity_matches_recorded_trace(self, decoder, tmp_path):
        path = tmp_path / "perl.rastrace"
        record_trace(build_program(WorkloadSpec("perl", 1, 0.05)), str(path))
        for size in (2, 16):
            batched = replay_shard_batched(path, ras_entries=size)
            assert batched.returns > 0
            assert counters(batched) == counters(
                replay_events(iter_trace_file(str(path)), ras_entries=size))


def oracle_counters(store, sizes):
    """The oracle's counters per shard and size, named as a batch
    job's counters are."""
    swept = {}
    for name in store.manifest.names():
        by_size = replay_events_multi(store.events(name), sizes)
        swept[name] = {
            size: {"returns": result.returns, "return_hits": result.hits,
                   "ras_overflows": result.overflows,
                   "ras_underflows": result.underflows}
            for size, result in by_size.items()}
    return swept


class TestExecutorBatchEngine:
    SIZES = (1, 4, 16, 64)

    def _store(self, tmp_path):
        store = CorpusStore.create(tmp_path / "corpus")
        store.build_from_specs([WorkloadSpec("li", 1, 0.05)])
        return store

    def test_sweep_engines_agree(self, tmp_path):
        store = self._store(tmp_path)
        executor = SweepExecutor(jobs=2, cache=None)
        via_batch = corpus_depth_results(store, self.SIZES,
                                         executor=executor)
        expected = oracle_counters(store, self.SIZES)
        assert via_batch.keys() == expected.keys()
        for name, by_size in via_batch.items():
            for size in self.SIZES:
                job = by_size[size]
                assert {key: job.counter(key)
                        for key in expected[name][size]} \
                    == expected[name][size]

    def test_corpus_sweep_table_identical(self, tmp_path):
        store = self._store(tmp_path)
        executor = SweepExecutor(jobs=1, cache=None)
        _, _, batch_rows = corpus_depth_sweep(store, self.SIZES,
                                              executor=executor)
        oracle_rows = []
        for name, by_size in oracle_counters(store, self.SIZES).items():
            row = [name]
            for size in self.SIZES:
                hits = by_size[size]["return_hits"]
                returns = by_size[size]["returns"]
                row.append(round(100 * hits / returns, 2))
            oracle_rows.append(row + [returns])
        assert batch_rows == oracle_rows

    def test_batch_jobs_cache_under_their_own_key(self, tmp_path):
        store = self._store(tmp_path)
        spec = store.specs()[0]
        config = baseline_config()
        assert ExperimentJob(spec, config, "batch").cache_key() \
            != ExperimentJob(spec, config, "diffcheck").cache_key()

        cache = ResultCache(tmp_path / "cache")
        cold = SweepExecutor(jobs=1, cache=cache)
        first = corpus_depth_sweep(store, self.SIZES, executor=cold)
        assert cold.cache_misses == len(self.SIZES)
        warm = SweepExecutor(jobs=1, cache=cache)
        second = corpus_depth_sweep(store, self.SIZES, executor=warm)
        assert second == first
        assert warm.cache_hits == len(self.SIZES)
        assert warm.cache_misses == 0

    def test_unknown_engine_still_rejected(self):
        from repro.errors import ConfigError
        from repro.trace.replay import TraceShardSpec

        shard = TraceShardSpec(name="x", path="/nope")
        for engine in ("blocked", "trace"):
            with pytest.raises(ConfigError, match="unknown engine"):
                ExperimentJob(shard, baseline_config(), engine)


class TestCliBatchEngine:
    def test_corpus_replay_engine_flag_output_identical(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        root = tmp_path / "corpus"
        assert cli_main(["corpus", "build", str(root), "--names", "li",
                         "--scale", "0.05"]) == 0

        def replay_rows(*flags):
            out = tmp_path / "replay.json"
            assert cli_main(["corpus", "replay", str(root), "--sizes", "1",
                             "8", "--json", str(out), *flags]) == 0
            return json.loads(out.read_text())["rows"]

        rows = replay_rows("--engine", "batch")
        assert replay_rows() == rows  # batch is the default
        store = CorpusStore.open(root)
        (name,) = store.manifest.names()
        oracle = replay_events_multi(store.events(name), (1, 8))
        assert rows == [[name]
                        + [round(100 * oracle[size].accuracy, 2)
                           for size in (1, 8)]
                        + [oracle[8].returns]]

    def test_trace_engine_choice_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["corpus", "replay", str(tmp_path), "--engine",
                      "trace"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'trace'" in capsys.readouterr().err
