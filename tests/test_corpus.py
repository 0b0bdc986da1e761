"""Unit tests for the trace corpus subsystem (repro.corpus)."""

import io
import lzma
import pathlib

import pytest

from repro.config.options import RepairMechanism
from repro.core import WorkloadSpec, build_program
from repro.core.executor import (
    ExperimentJob,
    ResultCache,
    SweepExecutor,
    simulation_calls,
)
from repro.corpus import (
    CorpusError,
    CorpusManifest,
    CorpusStore,
    ImportStats,
    ShardRecord,
    champsim_events,
    corpus_depth_results,
    corpus_depth_sweep,
)
from repro.corpus.champsim import (
    RECORD,
    REG_FLAGS,
    REG_INSTRUCTION_POINTER,
    REG_STACK_POINTER,
)
from repro.errors import ConfigError
from repro.isa.opcodes import ControlClass
from repro.trace import (
    ControlFlowEvent,
    TraceFormatError,
    TraceReader,
    iter_trace_file,
    record_trace,
    replay_events,
    replay_events_multi,
    write_trace,
)
from repro.trace.replay import TraceShardSpec

DATA = pathlib.Path(__file__).parent / "data"
SAMPLE_CHAMPSIM = DATA / "sample_champsim.trace.xz"


def _events(n=40):
    events = []
    for i in range(n):
        control = (ControlClass.CALL_DIRECT, ControlClass.RETURN,
                   ControlClass.COND_BRANCH)[i % 3]
        events.append(ControlFlowEvent(
            control, 100 + 4 * i, 400 + 8 * i, gap=i % 5))
    return events


class TestV2Container:
    def test_v2_multiblock_header_and_index(self):
        events = _events(20)
        buffer = io.BytesIO()
        write_trace(buffer, events, block_events=7)
        buffer.seek(0)
        reader = TraceReader(buffer)
        assert reader.block_events == 7
        assert reader.count == 20
        index = reader.index()
        assert len(index) == 3  # 7 + 7 + 6
        assert [count for _, _, count in index] == [7, 7, 6]
        assert reader.read_all() == events  # index() restored the position

    def test_v2_64bit_pcs(self):
        big = ControlFlowEvent(ControlClass.RETURN, 2**40 + 4, 2**40 + 8, 1)
        buffer = io.BytesIO()
        write_trace(buffer, [big])
        buffer.seek(0)
        assert TraceReader(buffer).read_all() == [big]

    def test_corrupt_block_is_typed_crc_error_not_truncation(self):
        events = _events(30)
        buffer = io.BytesIO()
        write_trace(buffer, events, block_events=32)
        corrupted = bytearray(buffer.getvalue())
        # Flip a byte inside the compressed payload (past the 24-byte
        # header and 16-byte block header).
        corrupted[24 + 16 + 5] ^= 0xFF
        reader = TraceReader(io.BytesIO(bytes(corrupted)))
        with pytest.raises(TraceFormatError, match="CRC mismatch.*found.*expected"):
            reader.read_all()

    def test_truncated_v2_body_rejected(self):
        buffer = io.BytesIO()
        write_trace(buffer, _events(30), block_events=32)
        reader = TraceReader(io.BytesIO(buffer.getvalue()[:-60]))
        with pytest.raises(TraceFormatError):
            reader.read_all()

    def test_header_errors_carry_found_and_expected(self):
        with pytest.raises(TraceFormatError,
                           match=r"found b'NOTATRAC'.*expected b'RASTRACE'"):
            TraceReader(io.BytesIO(b"NOTATRACE" + b"\x00" * 16))
        with pytest.raises(TraceFormatError, match="found 2 bytes"):
            TraceReader(io.BytesIO(b"RA"))
        with pytest.raises(TraceFormatError, match="found 9"):
            TraceReader(io.BytesIO(b"RASTRACE" + b"\x09\x00\x00\x00" * 3))


class TestStreamingReplay:
    def test_bytes_source_supports_repeated_evaluation(self):
        trace = record_trace(build_program(WorkloadSpec("li", 1, 0.05)))
        first = replay_events(TraceReader(io.BytesIO(trace)), ras_entries=4)
        second = replay_events(TraceReader(io.BytesIO(trace)), ras_entries=4)
        assert first.returns > 0
        assert (first.returns, first.hits) == (second.returns, second.hits)

    def test_path_source_streams_from_disk(self, tmp_path):
        path = tmp_path / "t.rastrace"
        write_trace(str(path), _events())
        assert replay_events(iter_trace_file(str(path)),
                             ras_entries=8).returns > 0
        controls = [event.control for event in iter_trace_file(str(path))]
        assert sum(control.is_call for control in controls) > 0
        assert controls.count(ControlClass.RETURN) > 0

    def test_depth_sweep_single_pass_equals_per_size(self):
        trace = record_trace(build_program(WorkloadSpec("vortex", 1, 0.05)))
        events = TraceReader(io.BytesIO(trace)).read_all()
        swept = replay_events_multi(events, (1, 4, 64))
        for size in (1, 4, 64):
            alone = replay_events(events, ras_entries=size)
            assert (swept[size].returns, swept[size].hits,
                    swept[size].overflows, swept[size].underflows) == \
                   (alone.returns, alone.hits, alone.overflows,
                    alone.underflows)


class TestManifest:
    def _record(self, name="a"):
        return ShardRecord(name=name, filename=f"{name}.rastrace",
                           format_version=2, events=10, calls=3, returns=3,
                           checksum="ab" * 32,
                           source={"kind": "events"})

    def test_roundtrip(self, tmp_path):
        manifest = CorpusManifest([self._record("a"), self._record("b")],
                                  description="test")
        manifest.save(tmp_path / "manifest.json")
        loaded = CorpusManifest.load(tmp_path / "manifest.json")
        assert loaded.names() == ["a", "b"]
        assert loaded.get("a") == self._record("a")
        assert loaded.total_events == 20

    def test_duplicate_name_rejected(self):
        manifest = CorpusManifest([self._record()])
        with pytest.raises(CorpusError, match="duplicate"):
            manifest.add(self._record())

    def test_unknown_shard_and_bad_kind(self):
        with pytest.raises(CorpusError, match="no shard named"):
            CorpusManifest().get("nope")
        with pytest.raises(CorpusError, match="bad source kind"):
            ShardRecord(name="x", filename="x", format_version=2, events=0,
                        calls=0, returns=0, checksum="", source={"kind": "?"})

    def test_missing_and_malformed_manifest(self, tmp_path):
        with pytest.raises(CorpusError, match="cannot read"):
            CorpusManifest.load(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(CorpusError, match="not valid JSON"):
            CorpusManifest.load(bad)
        wrong = tmp_path / "wrong.json"
        wrong.write_text('{"schema": 99, "shards": []}')
        with pytest.raises(CorpusError, match="found 99, expected 1"):
            CorpusManifest.load(wrong)


class TestCorpusStore:
    def test_build_verify_and_stream(self, tmp_path):
        store = CorpusStore.create(tmp_path / "corpus")
        spec = WorkloadSpec("li", 1, 0.05)
        (record,) = store.build_from_specs([spec])
        assert record.events > 0
        assert record.calls == record.returns > 0
        store.verify()
        streamed = sum(1 for _ in store.events(record.name))
        assert streamed == record.events
        reopened = CorpusStore.open(tmp_path / "corpus")
        assert reopened.manifest.get(record.name) == record

    def test_tampered_shard_fails_verify_and_names_digests(self, tmp_path):
        store = CorpusStore.create(tmp_path / "corpus")
        (record,) = store.build_from_specs([WorkloadSpec("li", 1, 0.05)])
        path = store.shard_path(record)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorpusError,
                           match="checksum mismatch: found .* expected"):
            store.verify()

    def test_duplicate_shard_and_bad_name(self, tmp_path):
        store = CorpusStore.create(tmp_path / "corpus")
        store.add_shard("ok", _events(), {"kind": "events"})
        with pytest.raises(CorpusError, match="duplicate"):
            store.add_shard("ok", _events(), {"kind": "events"})
        with pytest.raises(CorpusError, match="bad shard name"):
            store.add_shard("../evil", _events(), {"kind": "events"})

    def test_failed_ingest_leaves_no_orphan_file(self, tmp_path):
        store = CorpusStore.create(tmp_path / "corpus")

        def exploding():
            yield _events(1)[0]
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            store.add_shard("partial", exploding(), {"kind": "events"})
        assert not (tmp_path / "corpus" / "partial.rastrace").exists()
        assert "partial" not in store.manifest

    def test_create_refuses_existing_corpus(self, tmp_path):
        CorpusStore.create(tmp_path / "corpus")
        with pytest.raises(CorpusError, match="already holds a corpus"):
            CorpusStore.create(tmp_path / "corpus")
        assert isinstance(CorpusStore.open_or_create(tmp_path / "corpus"),
                          CorpusStore)

    def test_records_filters(self, tmp_path):
        store = CorpusStore.create(tmp_path / "corpus")
        store.build_from_specs([WorkloadSpec("li", 1, 0.05)])
        store.import_champsim(SAMPLE_CHAMPSIM, name="sample")
        assert [r.name for r in store.records(kind="champsim")] == ["sample"]
        assert len(store.records()) == 2
        assert [r.name for r in store.records(
            predicate=lambda r: r.returns > 100)] == ["li-s1-x0.05"]
        assert store.specs(names=["sample"])[0].name == "sample"


class TestChampSimImport:
    def test_sample_trace_imports_clean(self, tmp_path):
        store = CorpusStore.create(tmp_path / "corpus")
        record, stats = store.import_champsim(SAMPLE_CHAMPSIM, name="sample")
        assert stats.records > 500
        assert stats.unclassified == 0
        assert stats.dropped_tail == 0
        assert record.calls == record.returns > 0
        assert stats.by_class["call-direct"] == record.calls

    def test_sample_trace_ras_behaviour(self, tmp_path):
        store = CorpusStore.create(tmp_path / "corpus")
        store.import_champsim(SAMPLE_CHAMPSIM, name="sample")
        swept = replay_events_multi(store.events("sample"), (2, 64))
        assert swept[64].accuracy == pytest.approx(1.0)
        assert swept[64].overflows == 0
        assert swept[2].overflows > 0
        assert swept[2].accuracy < 1.0

    def test_limit_bounds_records(self, tmp_path):
        stats = ImportStats()
        events = list(champsim_events(SAMPLE_CHAMPSIM, limit=50, stats=stats))
        assert stats.records == 50
        assert len(events) <= stats.branches

    def test_truncated_record_is_typed_error(self, tmp_path):
        raw = lzma.decompress(SAMPLE_CHAMPSIM.read_bytes())
        bad = tmp_path / "bad.trace"
        bad.write_bytes(raw[:RECORD.size * 3 + 10])
        with pytest.raises(CorpusError,
                           match="found 10 bytes, expected 64"):
            list(champsim_events(bad))

    def test_gzip_and_raw_streams(self, tmp_path):
        import gzip

        raw = lzma.decompress(SAMPLE_CHAMPSIM.read_bytes())
        plain = tmp_path / "t.trace"
        plain.write_bytes(raw)
        zipped = tmp_path / "t.trace.gz"
        zipped.write_bytes(gzip.compress(raw))
        from_xz = list(champsim_events(SAMPLE_CHAMPSIM))
        assert list(champsim_events(plain)) == from_xz
        assert list(champsim_events(zipped)) == from_xz


def _pack(ip, is_branch, taken, dests, sources):
    dests = tuple(dests) + (0,) * (2 - len(dests))
    sources = tuple(sources) + (0,) * (4 - len(sources))
    return RECORD.pack(ip, is_branch, taken, *dests, *sources,
                       0, 0, 0, 0, 0, 0)


def _call(ip):
    return _pack(ip, 1, 1, (REG_INSTRUCTION_POINTER, REG_STACK_POINTER),
                 (REG_INSTRUCTION_POINTER, REG_STACK_POINTER))


def _ret(ip):
    return _pack(ip, 1, 1, (REG_INSTRUCTION_POINTER, REG_STACK_POINTER),
                 (REG_STACK_POINTER,))


def _plain(ip):
    return _pack(ip, 0, 0, (1,), (REG_FLAGS,))


class TestOffsetMismatchCounter:
    def test_variable_call_sizes_are_counted(self, tmp_path):
        """A return landing at call+5 (and one *below* its call) is
        exactly what ``offset_mismatches`` / ``backwards_returns``
        quantify — the returns where champsim calibration can beat the
        fixed pc+4 convention."""
        records = [
            _call(1000), _plain(2000),   # call size 5:
            _ret(2004), _plain(1005),    #   return to 1000 + 5
            _call(3000), _plain(4000),   # backwards return:
            _ret(4004), _plain(2990),    #   2990 < call ip 3000
            _call(5000), _plain(6000),   # conventional call size 4:
            _ret(6004), _plain(5004),    #   no mismatch
        ]
        trace = tmp_path / "var.trace"
        trace.write_bytes(b"".join(records))
        stats = ImportStats()
        events = list(champsim_events(trace, stats=stats))
        assert stats.by_class["return"] == 3
        assert stats.offset_mismatches == 2
        assert stats.backwards_returns == 1
        assert len(events) == 6  # one event per branch record


class TestExecutorTraceEngine:
    SIZES = (1, 4, 16, 64)

    def _store(self, tmp_path, spec):
        store = CorpusStore.create(tmp_path / "corpus")
        store.build_from_specs([spec])
        return store

    def test_corpus_replay_equals_inmemory_replay(self, tmp_path):
        spec = WorkloadSpec("vortex", 1, 0.1)
        store = self._store(tmp_path, spec)
        direct = replay_events_multi(
            TraceReader(io.BytesIO(record_trace(build_program(spec)))),
            self.SIZES, RepairMechanism.NONE)
        executor = SweepExecutor(jobs=1, cache=None)
        results = corpus_depth_results(store, self.SIZES,
                                       executor=executor)
        (by_size,) = results.values()
        for size in self.SIZES:
            job = by_size[size]
            assert job.counter("returns") == direct[size].returns
            assert job.counter("return_hits") == direct[size].hits
            assert job.counter("ras_overflows") == direct[size].overflows
            assert job.counter("ras_underflows") == direct[size].underflows
            assert job.return_accuracy == pytest.approx(direct[size].accuracy)

    def test_parallel_equals_serial(self, tmp_path):
        store = self._store(tmp_path, WorkloadSpec("li", 1, 0.05))
        serial = corpus_depth_sweep(
            store, self.SIZES, executor=SweepExecutor(jobs=1, cache=None))
        parallel = corpus_depth_sweep(
            store, self.SIZES, executor=SweepExecutor(jobs=4, cache=None))
        assert serial == parallel

    def test_second_run_served_from_cache(self, tmp_path):
        store = self._store(tmp_path, WorkloadSpec("li", 1, 0.05))
        cache = ResultCache(tmp_path / "cache")
        first = SweepExecutor(jobs=1, cache=cache)
        cold = corpus_depth_sweep(store, self.SIZES, executor=first)
        assert first.cache_misses == len(self.SIZES)
        before = simulation_calls()
        second = SweepExecutor(jobs=1, cache=cache)
        warm = corpus_depth_sweep(store, self.SIZES, executor=second)
        assert warm == cold
        assert second.cache_hits == len(self.SIZES)
        assert second.cache_misses == 0
        assert simulation_calls() == before  # no shard was re-replayed

    def test_shard_content_change_invalidates_cache(self, tmp_path):
        from repro.config.defaults import baseline_config

        store = self._store(tmp_path, WorkloadSpec("li", 1, 0.05))
        spec = store.specs()[0]
        config = baseline_config()
        original_key = ExperimentJob(spec, config, "batch").cache_key()
        altered = TraceShardSpec(name=spec.name, path=spec.path,
                                 checksum="0" * 64, events=spec.events)
        assert ExperimentJob(altered, config, "batch").cache_key() \
            != original_key
        moved = TraceShardSpec(name=spec.name, path="/elsewhere/x.rastrace",
                               checksum=spec.checksum, events=spec.events)
        assert ExperimentJob(moved, config, "batch").cache_key() \
            == original_key  # path is not identity

    def test_engine_workload_pairing_enforced(self, tmp_path):
        from repro.config.defaults import baseline_config

        spec = TraceShardSpec(name="x", path="/nope")
        with pytest.raises(ConfigError, match="incompatible"):
            ExperimentJob(spec, baseline_config(), "frontend")
        with pytest.raises(ConfigError, match="incompatible"):
            ExperimentJob(WorkloadSpec("li"), baseline_config(), "batch")
        assert ExperimentJob(spec, baseline_config(), "batch").cache_key() \
            is None  # no checksum -> uncacheable

    def test_trace_depth_sweep_mechanism_respected(self, tmp_path):
        store = self._store(tmp_path, WorkloadSpec("li", 1, 0.05))
        (name,) = store.manifest.names()
        executor = SweepExecutor(jobs=1, cache=None)
        linked = corpus_depth_results(
            store, (64,), mechanism=RepairMechanism.SELF_CHECKPOINT,
            executor=executor)
        direct = replay_events(store.events(name), ras_entries=64,
                               mechanism=RepairMechanism.SELF_CHECKPOINT)
        job = linked[name][64]
        assert job.counter("return_hits") == direct.hits
