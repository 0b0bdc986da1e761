"""Differential parity for the batched trace-replay engine.

The batch engine (:mod:`repro.fastsim.batch`) exists only for speed;
its contract is bit-identical counters versus the streaming reference
(:mod:`repro.trace.replay`) on every trace, every repair mechanism,
every stack size, and the same typed errors on malformed input. These
tests hold that contract with randomized workloads (property-style
over seeds and structured random traces), the checked-in ChampSim
sample corpus, and both block decoders (numpy and stdlib, the latter
forced by hiding numpy from :mod:`repro.fastsim.batch`).
"""

import io
import pathlib
import random

import pytest

import repro.fastsim.batch
from repro.config.options import RepairMechanism
from repro.core import WorkloadSpec, build_program, trace_depth_sweep
from repro.core.executor import ExperimentJob, ResultCache, SweepExecutor
from repro.corpus import CorpusStore, corpus_depth_sweep
from repro.cli import main as cli_main
from repro.fastsim.batch import (
    decoder_backend,
    iter_event_batches,
    replay_batches,
    replay_batches_multi,
    replay_shard_batched,
    replay_shard_batched_multi,
)
from repro.isa.opcodes import ControlClass
from repro.trace import (
    ControlFlowEvent,
    TraceFormatError,
    TraceReader,
    record_trace,
    replay_shard,
    replay_shard_multi,
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


def trace_bytes(events, version=2, block_events=64):
    buffer = io.BytesIO()
    write_trace(buffer, events, version=version, block_events=block_events)
    return buffer.getvalue()


@pytest.fixture(params=["numpy", "python"])
def decoder(request, monkeypatch):
    if request.param == "python":
        monkeypatch.setattr(repro.fastsim.batch, "_np", None)
    elif repro.fastsim.batch._np is None:
        pytest.skip("numpy not available")
    assert decoder_backend() == request.param
    return request.param


class TestBatchDecode:
    @pytest.mark.parametrize("version", [1, 2])
    def test_batches_carry_exactly_the_stack_events(self, decoder, version):
        events = random_trace(seed=7)
        raw = trace_bytes(events, version=version, block_events=64)
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
        raw = trace_bytes(events, version=2, block_events=32)
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

    def test_truncated_v1_body_same_error(self, decoder):
        raw = trace_bytes(random_trace(seed=11), version=1)[:-4]
        ref_msg, batch_msg = self._both_errors(raw)
        assert "truncated" in ref_msg
        assert batch_msg == ref_msg


class TestRandomizedParity:
    """Property-style: batch == reference on structured random traces."""

    @pytest.mark.parametrize("seed", range(6))
    def test_every_mechanism_every_size(self, decoder, seed):
        events = random_trace(seed)
        raw = trace_bytes(events, block_events=64)
        for mechanism in MECHANISMS:
            for size in SIZES:
                reference = replay_events(events, ras_entries=size,
                                          mechanism=mechanism)
                batched = replay_batches(iter_event_batches(raw),
                                         ras_entries=size,
                                         mechanism=mechanism)
                assert counters(batched) == counters(reference), \
                    (seed, mechanism, size)

    @pytest.mark.parametrize("seed", range(6))
    def test_multi_size_single_pass(self, decoder, seed):
        events = random_trace(seed, length=400)
        raw = trace_bytes(events, block_events=32)
        for mechanism in (RepairMechanism.NONE, RepairMechanism.VALID_BITS,
                          RepairMechanism.SELF_CHECKPOINT):
            reference = replay_events_multi(events, SIZES,
                                            mechanism=mechanism)
            batched = replay_batches_multi(iter_event_batches(raw), SIZES,
                                           mechanism=mechanism)
            for size in SIZES:
                assert counters(batched[size]) == \
                    counters(reference[size]), (seed, mechanism, size)

    def test_v1_container_parity(self, decoder):
        events = random_trace(seed=21)
        raw = trace_bytes(events, version=1)
        for size in (1, 8, 64):
            reference = replay_events(events, ras_entries=size)
            batched = replay_batches(iter_event_batches(raw),
                                     ras_entries=size)
            assert counters(batched) == counters(reference)

    def test_empty_trace(self, decoder):
        raw = trace_bytes([])
        result = replay_batches(iter_event_batches(raw), ras_entries=8)
        assert counters(result) == (0, 0, 0, 0)
        assert result.accuracy is None


class TestShardParity:
    """Batch == reference == executor on real shards."""

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
                    reference = replay_shard(shard, ras_entries=size,
                                             mechanism=mechanism)
                    batched = replay_shard_batched(shard, ras_entries=size,
                                                   mechanism=mechanism)
                    assert counters(batched) == counters(reference), \
                        (shard.name, mechanism, size)

    def test_shard_multi_matches_streaming_multi(self, decoder, tmp_path):
        store = self._store(tmp_path)
        for shard in store.specs():
            reference = replay_shard_multi(shard, SIZES)
            batched = replay_shard_batched_multi(shard, SIZES)
            for size in SIZES:
                assert counters(batched[size]) == counters(reference[size])

    def test_workload_parity_matches_recorded_trace(self, decoder):
        spec = WorkloadSpec("perl", 1, 0.05)
        raw = trace_bytes(
            TraceReader(io.BytesIO(record_trace(build_program(spec))))
            .read_all())
        for size in (2, 16):
            reference = replay_batches(iter_event_batches(raw),
                                       ras_entries=size)
            assert reference.returns > 0
            assert counters(reference) == counters(
                replay_events(TraceReader(io.BytesIO(raw)).read_all(),
                              ras_entries=size))


class TestExecutorBatchEngine:
    SIZES = (1, 4, 16, 64)

    def _store(self, tmp_path):
        store = CorpusStore.create(tmp_path / "corpus")
        store.build_from_specs([WorkloadSpec("li", 1, 0.05)])
        return store

    def test_sweep_engines_agree(self, tmp_path):
        store = self._store(tmp_path)
        executor = SweepExecutor(jobs=2, cache=None)
        via_trace = trace_depth_sweep(store.specs(), self.SIZES,
                                      executor=executor, engine="trace")
        via_batch = trace_depth_sweep(store.specs(), self.SIZES,
                                      executor=executor, engine="batch")
        for name, by_size in via_trace.items():
            for size in self.SIZES:
                assert via_batch[name][size].counters == \
                    by_size[size].counters

    def test_corpus_sweep_table_identical(self, tmp_path):
        store = self._store(tmp_path)
        executor = SweepExecutor(jobs=1, cache=None)
        _, _, trace_rows = corpus_depth_sweep(store, self.SIZES,
                                              executor=executor,
                                              engine="trace")
        _, _, batch_rows = corpus_depth_sweep(store, self.SIZES,
                                              executor=executor,
                                              engine="batch")
        assert batch_rows == trace_rows

    def test_batch_jobs_cache_under_their_own_key(self, tmp_path):
        from repro.config.defaults import baseline_config

        store = self._store(tmp_path)
        spec = store.specs()[0]
        config = baseline_config()
        assert ExperimentJob(spec, config, "batch").cache_key() \
            != ExperimentJob(spec, config, "trace").cache_key()

        cache = ResultCache(tmp_path / "cache")
        cold = SweepExecutor(jobs=1, cache=cache)
        first = corpus_depth_sweep(store, self.SIZES, executor=cold,
                                   engine="batch")
        assert cold.cache_misses == len(self.SIZES)
        warm = SweepExecutor(jobs=1, cache=cache)
        second = corpus_depth_sweep(store, self.SIZES, executor=warm,
                                    engine="batch")
        assert second == first
        assert warm.cache_hits == len(self.SIZES)
        assert warm.cache_misses == 0

    def test_unknown_engine_still_rejected(self):
        from repro.config.defaults import baseline_config
        from repro.errors import ConfigError
        from repro.trace.replay import TraceShardSpec

        with pytest.raises(ConfigError, match="unknown engine"):
            ExperimentJob(TraceShardSpec(name="x", path="/nope"),
                          baseline_config(), "blocked")


class TestCliBatchEngine:
    def test_corpus_replay_engine_flag_output_identical(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        root = tmp_path / "corpus"
        assert cli_main(["corpus", "build", str(root), "--names", "li",
                         "--scale", "0.05"]) == 0
        capsys.readouterr()
        assert cli_main(["corpus", "replay", str(root),
                         "--engine", "batch", "--sizes", "1", "8"]) == 0
        batch_out = capsys.readouterr().out
        assert cli_main(["corpus", "replay", str(root),
                         "--engine", "trace", "--sizes", "1", "8"]) == 0
        trace_out = capsys.readouterr().out
        assert batch_out.splitlines()[1:] == trace_out.splitlines()[1:]
