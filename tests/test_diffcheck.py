"""Tests for the differential ChampSim cross-validation harness.

Three layers: :func:`diff_events` on synthetic streams (including the
calibration-win divergence that separates ``none`` from the reference),
the executor-routed :func:`diff_corpus` path with its cached counters,
and the CLI gate — which must exit non-zero, and record context in its
JSON artifact, when a swapped-in lane mispredicts one return.
"""

import json
import pathlib

import pytest

from repro.cli import main
from repro.config.options import RepairMechanism
from repro.core.executor import ExperimentJob, ResultCache, SweepExecutor
from repro.corpus import (
    CorpusStore,
    DiffReport,
    DivergenceError,
    diff_corpus,
    diff_events,
    diff_shard,
)
from repro.corpus import diffcheck
from repro.corpus.diffcheck import DIFF_SCHEMA
from repro.isa.opcodes import ControlClass
from repro.trace.format import ControlFlowEvent

DATA = pathlib.Path(__file__).parent / "data"
SAMPLE_CHAMPSIM = DATA / "sample_champsim.trace.xz"


def _sample_store(tmp_path):
    store = CorpusStore.create(tmp_path / "corpus")
    store.import_champsim(SAMPLE_CHAMPSIM, name="sample")
    return store


def _mispredict_return(monkeypatch, index):
    """Swap diffcheck's lane for one whose prediction for the
    ``index``-th return (0-based) is wrong. The reference still replays
    the real trace, so the gate must go red. Counts from a swapped lane
    are wrong, so callers must keep them out of the result cache."""

    class Mispredicting(diffcheck._Lane):
        def step(self, event):
            predicted = super().step(event)
            if (event.control is ControlClass.RETURN
                    and self.returns == index + 1):
                return event.next_pc ^ 0x40
            return predicted

    monkeypatch.setattr(diffcheck, "_Lane", Mispredicting)


def _calibration_events():
    """A call whose true size (5) differs from the pc+4 default."""
    return [
        ControlFlowEvent(ControlClass.CALL_DIRECT, 100, 200),
        ControlFlowEvent(ControlClass.RETURN, 240, 105),
        ControlFlowEvent(ControlClass.CALL_DIRECT, 100, 200),
        ControlFlowEvent(ControlClass.RETURN, 240, 105),
    ]


class TestDiffEvents:
    def test_champsim_variant_matches_reference_exactly(self):
        report = diff_events(_calibration_events())
        assert report.ok
        assert report.returns == 2
        # the first return misses (untrained tracker), the second hits
        # on both sides once the 5-byte call size is learned
        assert report.pairs == {"ours": (1, 2), "reference": (1, 2)}
        report.ensure()  # must not raise

    def test_calibration_win_separates_none_from_reference(self):
        """``none`` keeps predicting call+4; the reference learns the
        5-byte call size — the second return is the divergence."""
        report = diff_events(_calibration_events(),
                             mechanism=RepairMechanism.NONE)
        assert report.divergences == 1
        first = report.first_divergence
        assert first["event"] == 3
        assert first["ours"] == 104
        assert first["reference"] == 105
        assert first["ours_hit"] is False
        assert first["reference_hit"] is True
        assert [e["event"] for e in first["context"]] == [0, 1, 2]
        with pytest.raises(DivergenceError):
            report.ensure()

    def test_sample_shard_has_zero_divergences(self, tmp_path):
        """The acceptance bar: the checked-in trace replays clean."""
        store = _sample_store(tmp_path)
        report = diff_shard(store.spec("sample"))
        assert report.ok
        assert report.returns == 93
        assert report.ours_hits == 93
        assert report.reference_hits == 93
        assert report.checksum == store.manifest.get("sample").checksum

    def test_report_json_roundtrip(self):
        report = diff_events(_calibration_events(),
                             mechanism=RepairMechanism.NONE)
        data = report.to_json_dict()
        assert data["schema"] == DIFF_SCHEMA
        assert data["ok"] is False
        assert DiffReport.from_json_dict(
            json.loads(json.dumps(data))) == report
        with pytest.raises(DivergenceError):
            DiffReport.from_json_dict({"schema": 99})


class TestDiffCorpus:
    def test_executor_path_matches_direct_replay(self, tmp_path):
        store = _sample_store(tmp_path)
        cache = ResultCache(tmp_path / "cache")
        executor = SweepExecutor(jobs=1, cache=cache)
        reports = diff_corpus(store, executor=executor)
        assert [r.shard for r in reports] == ["sample"]
        assert reports[0] == diff_shard(store.spec("sample"))
        # warm run: the diffcheck engine result is served from cache
        warm = SweepExecutor(jobs=1, cache=cache)
        assert diff_corpus(store, executor=warm) == reports
        assert warm.cache_stats()["hits"] == 1

    def test_diffcheck_engine_counters(self, tmp_path):
        store = _sample_store(tmp_path)
        from repro.config.defaults import baseline_config
        config = baseline_config() \
            .with_repair(RepairMechanism.CHAMPSIM).with_ras_entries(64)
        job = ExperimentJob(store.spec("sample"), config,
                            engine="diffcheck")
        result = SweepExecutor(jobs=1, cache=None).run([job])[0]
        assert result.counter("divergences") == 0
        assert result.counter("returns") == 93
        assert result.rates["agreement"] == 1.0


class TestCliGate:
    def test_clean_run_exits_zero_and_writes_report(self, tmp_path):
        store = _sample_store(tmp_path)
        out = tmp_path / "diffreport.json"
        rc = main(["corpus", "diffcheck", str(store.root),
                   "--report", str(out), "--no-cache", "--no-telemetry"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert payload["reports"][0]["divergences"] == 0

    def test_unwritable_report_path_fails_cleanly(self, tmp_path, capsys):
        store = _sample_store(tmp_path)
        out = tmp_path / "missing" / "diffreport.json"
        rc = main(["corpus", "diffcheck", str(store.root),
                   "--report", str(out), "--no-cache", "--no-telemetry"])
        assert rc == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"repro-sim: cannot write {out}: ")

    def test_injected_divergence_turns_the_gate_red(self, tmp_path,
                                                    monkeypatch):
        """The corpus-smoke CI negative check, as a unit test: our lane
        mispredicts one return, and the exact same invocation must exit
        1 with the divergence (and its context) recorded in the
        artifact."""
        store = _sample_store(tmp_path)
        out = tmp_path / "corrupted.json"
        _mispredict_return(monkeypatch, 7)
        rc = main(["corpus", "diffcheck", str(store.root),
                   "--report", str(out), "--no-cache", "--no-telemetry"])
        assert rc == 1
        payload = json.loads(out.read_text())
        assert payload["ok"] is False
        report = payload["reports"][0]
        assert report["divergences"] == 1
        first = report["first_divergence"]
        assert first is not None
        assert first["ours_hit"] != first["reference_hit"]
        assert first["context"], "first divergence carries no context"
