"""Tests for repro.obs: a sweep's span totals.

Covers what a capture counts (calls and inclusive seconds per span
name, nested spans under both names, nothing after ``seal``), a pool
job's capture handing counting back to the submitter's, and the
determinism guarantee: results are bit-identical with recording on or
off, and a pool sweep's entry counts every job its workers ran.
"""

from repro.config.defaults import baseline_config
from repro.core import ExperimentJob, ResultCache, SweepExecutor
from repro.core.experiment import WorkloadSpec
from repro.obs import capture as capture_module
from repro.obs.capture import TraceCapture, span
from repro.telemetry import RunLedger, deterministic_view

SPEC = WorkloadSpec("li", seed=1, scale=0.05)


def _jobs(sizes=(1, 4, 16), engine="frontend"):
    base = baseline_config()
    return [ExperimentJob(SPEC, base.with_ras_entries(size), engine)
            for size in sizes]


def _latest_entry(executor):
    """The ledger entry of the executor's last sweep."""
    return executor.ledger.get(executor.run_ids[-1])


class TestSpanIdentity:
    def test_no_context_no_trace_fields(self):
        with span("obs/test") as sp:
            assert sp is None
        assert capture_module._active.capture is None

    def test_nested_spans_count_both_names(self):
        capture = TraceCapture.begin()
        with span("obs/outer"):
            for _ in range(2):
                with span("obs/inner"):
                    pass
        totals = capture.close()
        assert list(totals) == ["obs/inner", "obs/outer"]
        assert totals["obs/outer"]["calls"] == 1
        assert totals["obs/inner"]["calls"] == 2
        # inclusive: the outer span's time holds the inner ones'
        assert totals["obs/outer"]["s"] >= totals["obs/inner"]["s"] >= 0.0

    def test_joined_capture_restores_the_submitters(self):
        """A pool job's capture counts its own spans; sealing it hands
        counting back to the submitter, which adds the job's totals."""
        outer = TraceCapture.begin()
        with span("obs/run"):
            inner = TraceCapture.begin()
            with span("obs/job"):
                pass
            inner.seal()
            with span("obs/after"):
                pass
            outer.add(inner.totals)
            outer.add(inner.totals)
        totals = outer.close()
        assert inner.totals.keys() == {"obs/job"}
        assert {name: total["calls"] for name, total in totals.items()} \
            == {"obs/after": 1, "obs/job": 2, "obs/run": 1}
        assert capture_module._active.capture is None


class TestCapture:
    def test_begin_none_when_tracing_off(self, tmp_path, monkeypatch):
        # recording is off exactly when the executor has no run ledger:
        # its sweeps begin no capture and write nothing beside the cache
        def begin(cls):
            raise AssertionError("a sweep without a ledger began a capture")

        monkeypatch.setattr(TraceCapture, "begin", classmethod(begin))
        executor = SweepExecutor(jobs=1, cache=ResultCache(tmp_path),
                                 ledger=None)
        assert len(executor.run(_jobs())) == 3
        assert executor._capture is None and executor.run_ids == []
        assert [path.name for path in tmp_path.iterdir()] == ["v1"]

    def test_seal_stops_counting_close_returns_totals(self):
        capture = TraceCapture.begin()
        with span("obs/collected"):
            pass
        capture.seal()
        capture.seal()   # idempotent
        with span("obs/after-seal"):
            pass
        totals = capture.close()
        assert totals == {"obs/collected": {
            "calls": 1, "s": totals["obs/collected"]["s"]}}
        assert capture.close() == totals


class TestDeterminism:
    """Recording a sweep never changes simulation results."""

    def _run(self, tmp_path, tag, recorded=True):
        ledger = RunLedger(tmp_path / f"ledger-{tag}.jsonl")
        executor = SweepExecutor(
            jobs=1, cache=ResultCache(tmp_path / f"cache-{tag}"),
            ledger=ledger if recorded else None)
        results = executor.run(_jobs())
        return [r.as_dict() for r in results], ledger.entries()

    def test_bit_identical_with_tracing_on_and_off(self, tmp_path):
        rows_on, (entry_on,) = self._run(tmp_path, "on")
        assert entry_on["spans"]["sweep/run"]["calls"] == 1
        rows_off, entries_off = self._run(tmp_path, "off", recorded=False)
        assert entries_off == []
        rows_again, (entry_again,) = self._run(tmp_path, "again")
        assert rows_on == rows_off == rows_again
        assert deterministic_view(entry_on) == deterministic_view(entry_again)

    def test_entry_carries_the_span_totals(self, tmp_path):
        executor = SweepExecutor(jobs=1, cache=ResultCache(tmp_path / "cache"),
                                 ledger=RunLedger(tmp_path / "l.jsonl"))
        executor.run(_jobs())
        spans = _latest_entry(executor)["spans"]
        assert {name: total["calls"] for name, total in spans.items()} == {
            "cache/get": 3, "cache/put": 3, "sweep/job": 3, "sweep/run": 1}
        # serial: every job ran inside the one sweep/run span
        assert spans["sweep/run"]["s"] >= spans["sweep/job"]["s"] > 0.0
        assert sorted(path.name for path in tmp_path.iterdir()) \
            == ["cache", "l.jsonl"]

    def test_pool_worker_spans_join_the_trace(self, tmp_path):
        """A cold pool sweep counts one sweep/job per submitted job,
        however its jobs spread over the workers."""
        executor = SweepExecutor(jobs=2, cache=ResultCache(tmp_path))
        executor.run(_jobs())
        entry = _latest_entry(executor)
        assert entry["jobs"] == 2
        assert entry["spans"]["sweep/job"]["calls"] == entry["submitted"] == 3
        assert entry["spans"]["sweep/run"]["calls"] == 1
