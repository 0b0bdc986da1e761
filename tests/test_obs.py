"""Tests for repro.obs: sweep tracing and profiling.

Covers span identity, parenting and the span format inside a capture,
captures joined to another's trace, the trace store's corruption
defenses (a SIGKILLed worker's garbage never pollutes a merged trace),
trace analysis (tree, critical path, Chrome export), the sampling
profiler, and the determinism guarantee: results are bit-identical with
tracing on or off, and pool workers' spans join the submitter's trace.
"""

import json
import time
import uuid

import pytest

from repro.cli import main as cli_main
from repro.config.defaults import baseline_config
from repro.core import ExperimentJob, ResultCache, SweepExecutor
from repro.core.experiment import WorkloadSpec
from repro.obs import analysis
from repro.obs.capture import TraceCapture, span
from repro.obs.profile import SamplingProfiler, render_flame
from repro.obs.store import TraceStore, valid_trace_id
from repro.telemetry import RunLedger, deterministic_view

SPEC = WorkloadSpec("li", seed=1, scale=0.05)


def _jobs(sizes=(1, 4, 16), engine="frontend"):
    base = baseline_config()
    return [ExperimentJob(SPEC, base.with_ras_entries(size), engine)
            for size in sizes]


def _latest_entry(executor):
    """The ledger entry of the executor's last sweep."""
    return executor.ledger.get(executor.run_ids[-1])


KEYS = {"name", "start_s", "ms", "pid", "tid", "attrs", "trace_id",
        "span_id", "ts"}


class TestSpanIdentity:
    def test_no_context_no_trace_fields(self):
        with span("obs/test") as sp:
            assert sp is None     # outside a capture nothing records

    def test_nested_spans_parent_correctly(self):
        capture = TraceCapture.begin(None)
        with span("obs/outer"):
            with span("obs/inner"):
                pass
        capture.seal()
        inner, outer = capture.spans   # recorded as each one closes
        assert outer["trace_id"] == inner["trace_id"] == capture.trace_id
        assert "parent_id" not in outer     # the sweep's root span
        assert inner["parent_id"] == outer["span_id"]
        assert set(outer) == KEYS
        assert set(inner) == KEYS | {"parent_id"}
        assert inner["ts"] > 0

    def test_joined_capture_restores_the_submitters(self):
        """A pool job's capture joins the submitter's trace under its
        open span; sealing it hands spans back to the submitter."""
        outer = TraceCapture.begin(None)
        with span("obs/run") as run:
            inner = TraceCapture(None, outer.trace_id, run.span_id)
            with span("obs/job"):
                pass
            inner.seal()
            with span("obs/after"):
                pass
        outer.seal()
        job, = inner.spans
        assert job["parent_id"] == run.span_id
        assert job["trace_id"] == outer.trace_id
        assert [s["name"] for s in outer.spans] == ["obs/after", "obs/run"]
        with span("obs/outside") as sp:
            assert sp is None


class TestTraceStore:
    def _spans(self, trace_id, count=3):
        out = []
        for index in range(count):
            out.append({"name": f"obs/{index}", "trace_id": trace_id,
                        "span_id": f"{index:016x}", "ts": 100.0 + index,
                        "ms": 5.0, "pid": 1, "attrs": {}})
        return out

    def test_append_load_roundtrip_sorted(self, tmp_path):
        store = TraceStore(tmp_path)
        trace_id = uuid.uuid4().hex
        spans = self._spans(trace_id)
        assert store.append(trace_id, reversed(spans)) == 3
        assert store.load(trace_id) == spans   # re-sorted by ts

    def test_garbage_and_foreign_spans_filtered(self, tmp_path):
        store = TraceStore(tmp_path)
        trace_id = uuid.uuid4().hex
        other = uuid.uuid4().hex
        batch = [None, 42, "nope",
                 {"name": "foreign", "trace_id": other},
                 {"name": "ok", "trace_id": trace_id}]
        assert store.append(trace_id, batch) == 1
        assert [s["name"] for s in store.load(trace_id)] == ["ok"]

    def test_torn_line_never_corrupts_merged_trace(self, tmp_path):
        """A SIGKILLed writer's partial line is skipped on load."""
        store = TraceStore(tmp_path)
        trace_id = uuid.uuid4().hex
        store.append(trace_id, self._spans(trace_id, 2))
        with open(store.path(trace_id), "a") as handle:
            handle.write('{"name": "torn", "trace_id": "' + trace_id)
        # the torn tail hides neither earlier nor later appends
        store.append(trace_id, [{"name": "later", "trace_id": trace_id,
                                 "ts": 200.0, "ms": 1.0}])
        loaded = store.load(trace_id)
        assert [s["name"] for s in loaded] == ["obs/0", "obs/1", "later"]

    def test_invalid_trace_id_refused(self, tmp_path):
        store = TraceStore(tmp_path)
        assert not valid_trace_id("../../etc/passwd")
        assert not valid_trace_id("UPPER" * 8)
        with pytest.raises(ValueError):
            store.path("../escape")

    def test_profile_roundtrip(self, tmp_path):
        store = TraceStore(tmp_path)
        trace_id = uuid.uuid4().hex
        assert store.load_profile(trace_id) is None
        assert store.write_profile(trace_id, "a;b 3\n")
        assert store.load_profile(trace_id) == "a;b 3\n"


class TestCapture:
    def test_begin_none_when_tracing_off(self, tmp_path, monkeypatch):
        # tracing is off exactly when the executor has no run ledger:
        # its sweeps begin no capture and leave no trace beside the cache
        def begin(store):
            raise AssertionError("a sweep without a ledger began a capture")

        monkeypatch.setattr(TraceCapture, "begin", staticmethod(begin))
        executor = SweepExecutor(jobs=1, cache=ResultCache(tmp_path),
                                 ledger=None)
        assert len(executor.run(_jobs())) == 3
        assert executor._capture is None and executor.run_ids == []
        assert not (tmp_path / "traces").exists()

    def test_seal_stops_collection_close_persists(self, tmp_path):
        store = TraceStore(tmp_path)
        capture = TraceCapture.begin(store)
        with span("obs/collected"):
            pass
        capture.seal()
        capture.seal()   # idempotent
        with span("obs/after-seal"):
            pass
        capture.close()
        names = {s["name"] for s in store.load(capture.trace_id)}
        assert "obs/collected" in names
        assert "obs/after-seal" not in names


class TestAnalysis:
    def _tree(self):
        return [
            {"name": "root", "trace_id": "t", "span_id": "r" * 16,
             "ts": 10.0, "ms": 100.0, "pid": 1, "attrs": {}},
            {"name": "early", "trace_id": "t", "span_id": "a" * 16,
             "parent_id": "r" * 16, "ts": 10.01, "ms": 20.0, "pid": 1,
             "attrs": {}},
            {"name": "late", "trace_id": "t", "span_id": "b" * 16,
             "parent_id": "r" * 16, "ts": 10.05, "ms": 54.0, "pid": 2,
             "attrs": {}},
            {"name": "orphan", "trace_id": "t", "span_id": "c" * 16,
             "parent_id": "gone" * 4, "ts": 10.02, "ms": 1.0, "pid": 3,
             "attrs": {}},
        ]

    def test_build_tree_orphans_become_roots(self):
        roots, children = analysis.build_tree(self._tree())
        assert [r["name"] for r in roots] == ["root", "orphan"]
        assert [c["name"] for c in children["r" * 16]] == ["early", "late"]

    def test_critical_path_descends_latest_ending_child(self):
        info = analysis.critical_path(self._tree())
        assert [s["name"] for s in info["path"]] == ["root", "late"]
        assert info["duration_ms"] == 100.0
        assert 0.9 <= info["coverage"] <= 1.0

    def test_critical_path_empty(self):
        assert analysis.critical_path([])["path"] == []

    def test_chrome_trace_shape(self):
        data = analysis.chrome_trace(self._tree())
        assert data["displayTimeUnit"] == "ms"
        complete = [e for e in data["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in data["traceEvents"] if e["ph"] == "M"]
        assert len(complete) == 4
        assert {e["pid"] for e in meta} == {1, 2, 3}
        root = next(e for e in complete if e["name"] == "root")
        assert root["ts"] == 0.0 and root["dur"] == 100000.0
        json.dumps(data)   # must be JSON-serializable as-is

    def test_waterfall_renders_all_spans(self):
        text = analysis.waterfall(self._tree(), width=80)
        assert "trace t · 4 spans" in text
        for name in ("root", "early", "late", "orphan"):
            assert name in text
        assert "  early" in text   # indented under root
        assert analysis.waterfall([]) == "(empty trace)"

    def test_summarize(self):
        rollup = analysis.summarize(self._tree())
        assert rollup["spans"] == 4 and rollup["processes"] == 3
        assert rollup["by_name"]["root"] == 1


class TestProfiler:
    def test_sampling_profiler_collects_stacks(self):
        profiler = SamplingProfiler(interval_s=0.001).start()
        deadline = time.time() + 0.3
        while time.time() < deadline and profiler.samples < 5:
            sum(range(1000))
        profiler.stop()
        assert profiler.samples > 0
        collapsed = profiler.collapsed()
        assert collapsed and all(" " in line for line in collapsed)
        summary = profiler.summary(top=5)
        assert summary is not None and summary["samples"] == profiler.samples

    def test_render_flame(self):
        text = render_flame(["main;work;inner 6", "main;other 2"])
        assert "75.0%" in text and "inner" in text
        assert render_flame([]) == "(no profile samples)"


class TestDeterminism:
    """Satellite: tracing/profiling never changes simulation results."""

    def _run(self, tmp_path, tag, recorded=True):
        ledger = RunLedger(tmp_path / f"ledger-{tag}.jsonl")
        executor = SweepExecutor(
            jobs=1, cache=ResultCache(tmp_path / f"cache-{tag}"),
            ledger=ledger if recorded else None)
        results = executor.run(_jobs())
        return [r.as_dict() for r in results], ledger.entries()

    def test_bit_identical_with_tracing_on_and_off(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        rows_on, (entry_on,) = self._run(tmp_path, "on")
        assert entry_on.get("trace_id") and "profile" not in entry_on
        rows_off, entries_off = self._run(tmp_path, "off", recorded=False)
        assert entries_off == []
        monkeypatch.setenv("REPRO_PROFILE", "1")
        rows_profiled, (entry_profiled,) = self._run(tmp_path, "profiled")
        assert entry_profiled["trace_id"] != entry_on["trace_id"]
        assert rows_on == rows_off == rows_profiled
        assert (deterministic_view(entry_on)
                == deterministic_view(entry_profiled))

    def test_trace_persisted_next_to_ledger(self, tmp_path):
        executor = SweepExecutor(jobs=1, cache=ResultCache(tmp_path / "cache"),
                                 ledger=RunLedger(tmp_path / "l.jsonl"))
        executor.run(_jobs())
        trace_id = _latest_entry(executor)["trace_id"]
        spans = TraceStore(tmp_path / "traces").load(trace_id)
        names = {s["name"] for s in spans}
        assert "sweep/run" in names and "sweep/job" in names
        run = next(s for s in spans if s["name"] == "sweep/run")
        jobs = [s for s in spans if s["name"] == "sweep/job"]
        assert all(j["parent_id"] == run["span_id"] for j in jobs)
        info = analysis.critical_path(spans)
        assert info["path"][0]["name"] == "sweep/run"
        assert info["coverage"] >= 0.95

    def test_pool_worker_spans_join_the_trace(self, tmp_path):
        executor = SweepExecutor(jobs=2, cache=ResultCache(tmp_path))
        executor.run(_jobs())
        trace_id = _latest_entry(executor)["trace_id"]
        spans = TraceStore(tmp_path / "traces").load(trace_id)
        job_spans = [s for s in spans if s["name"] == "sweep/job"]
        assert len(job_spans) == len(_jobs())
        # at least the trace merged spans from more than one process
        # when the pool actually forked (pids may collapse on reuse)
        assert {s["trace_id"] for s in spans} == {trace_id}
        assert len(spans) == len({s["span_id"] for s in spans})
        run, = [s for s in spans if s["name"] == "sweep/run"]
        assert all(s["parent_id"] == run["span_id"] for s in job_spans)


class TestTraceCli:
    def _seed_trace(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        executor = SweepExecutor(jobs=1, cache=ResultCache.default())
        executor.run(_jobs())
        return _latest_entry(executor)["trace_id"]

    def test_show_critical_path_export_list(self, tmp_path, monkeypatch,
                                            capsys):
        trace_id = self._seed_trace(tmp_path, monkeypatch)
        assert cli_main(["trace", "list"]) == 0
        assert trace_id[:16] in capsys.readouterr().out
        assert cli_main(["trace", "show", trace_id]) == 0
        out = capsys.readouterr().out
        assert "sweep/run" in out and trace_id in out
        path_json = tmp_path / "cp.json"
        assert cli_main(["trace", "critical-path", "-1",
                         "--json", str(path_json)]) == 0
        capsys.readouterr()
        info = json.loads(path_json.read_text())
        assert info["trace_id"] == trace_id
        assert info["path"][0]["name"] == "sweep/run"
        assert info["coverage"] >= 0.95
        out_path = tmp_path / "chrome.json"
        assert cli_main(["trace", "export", trace_id,
                         "--out", str(out_path)]) == 0
        capsys.readouterr()
        data = json.loads(out_path.read_text())
        assert data["traceEvents"]

    def test_unknown_ref_fails_cleanly(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert cli_main(["trace", "show", "ffff" * 8]) == 1
        assert "no trace" in capsys.readouterr().err

    def test_list_with_the_cache_off(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "empty"))
        assert cli_main(["trace", "list"]) == 1
        assert "no traces recorded" in capsys.readouterr().err

    def test_profiled_sweep_renders_flame(self, tmp_path, monkeypatch,
                                          capsys):
        """The profiler runs through the capture: the summary rides on
        the ledger entry, the collapsed stacks land beside the trace."""
        monkeypatch.setenv("REPRO_PROFILE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        executor = SweepExecutor(jobs=1, cache=ResultCache.default())
        # a cycle job runs long enough (>100 ms) for the 5 ms sampler
        executor.run([ExperimentJob(SPEC, baseline_config(), "cycle")])
        entry = _latest_entry(executor)
        assert entry["profile"]["samples"] > 0
        prof = tmp_path / "cache" / "traces" / f"{entry['trace_id']}.prof"
        assert prof.read_text().strip()
        assert cli_main(["trace", "flame", "-1"]) == 0
        assert entry["trace_id"] in capsys.readouterr().out
