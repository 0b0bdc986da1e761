"""Tests for the telemetry subsystem: metrics, spans, ledger, CLI.

Covers the acceptance criteria of the telemetry PR: deterministic
metric aggregation (parallel == serial, bit-identical), ledger
round-trip across process "restarts" (fresh RunLedger instances),
``runs compare`` diff output, cache-provenance fields on JobResult,
the temp-file race fix in ResultCache.put, and the <3% overhead budget
on the scale-0.05 smoke sweep.
"""

import json
import statistics
import time

import pytest

from repro import telemetry
from repro.cli import main as cli_main
from repro.config.defaults import baseline_config
from repro.core import ExperimentJob, JobResult, ResultCache, SweepExecutor
from repro.core.experiment import WorkloadSpec
from repro.core.sweep import stack_depth_sweep
from repro.errors import TelemetryError
from repro.obs.capture import TraceCapture, span
from repro.obs.store import TraceStore
from repro.telemetry import (
    RunLedger,
    compare_entries,
    deterministic_view,
    entry_digest,
    metric_key,
)

SPEC = WorkloadSpec("li", seed=1, scale=0.05)
SIZES = (1, 4, 16)


def _jobs(sizes=SIZES, engine="frontend"):
    base = baseline_config()
    return [ExperimentJob(SPEC, base.with_ras_entries(size), engine)
            for size in sizes]


@pytest.fixture(autouse=True)
def fresh_telemetry():
    """Force telemetry on; hand control back to the env afterwards."""
    telemetry.set_enabled(True)
    yield
    telemetry.set_enabled(None)


class TestMetricsRegistry:
    def test_label_order_never_matters(self):
        assert metric_key("jobs", {"b": 2, "a": 1}) == "jobs{a=1,b=2}"
        assert (metric_key("jobs", {"engine": "frontend", "kind": "x"})
                == metric_key("jobs", {"kind": "x", "engine": "frontend"}))
        assert metric_key("jobs", {}) == "jobs"


class TestSpans:
    def test_span_records_timing_and_attrs(self):
        capture = TraceCapture.begin(None)
        with span("test/op", flavour="plain") as sp:
            sp.set(extra=1)
        capture.seal()
        record, = capture.spans
        assert record["name"] == "test/op"
        assert record["attrs"] == {"flavour": "plain", "extra": 1}
        assert record["ms"] >= 0.0

    def test_disabled_spans_record_nothing(self):
        telemetry.set_enabled(False)
        assert TraceCapture.begin(None) is None
        with span("test/op") as sp:
            assert sp is None

    def test_span_survives_exceptions(self):
        capture = TraceCapture.begin(None)
        with pytest.raises(ValueError):
            with span("test/fail"):
                raise ValueError("boom")
        capture.seal()
        assert [s["name"] for s in capture.spans] == ["test/fail"]

    def test_jsonl_sink(self, tmp_path):
        store = TraceStore(tmp_path)
        capture = TraceCapture.begin(store)
        with span("test/sink", n=2):
            pass
        capture.close()
        lines = [json.loads(line) for line in
                 store.path(capture.trace_id).read_text().splitlines()
                 if line]
        assert lines and lines[-1]["name"] == "test/sink"
        assert lines[-1]["attrs"] == {"n": 2}
        assert "ms" in lines[-1] and "pid" in lines[-1]


class TestJobResultProvenance:
    def test_cold_then_warm_sets_wall_time_and_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = SweepExecutor(jobs=1, cache=cache).run(_jobs())
        assert all(not result.from_cache for result in cold)
        assert all(result.wall_time_s > 0.0 for result in cold)
        warm = SweepExecutor(jobs=1, cache=cache).run(_jobs())
        assert all(result.from_cache for result in warm)
        # a hit serves the original simulation cost, not ~zero
        assert [r.wall_time_s for r in warm] == [r.wall_time_s for r in cold]

    def test_pre_telemetry_cache_entry_still_loads(self):
        result = JobResult(engine="frontend", instructions=10, cycles=5.0,
                           ipc=2.0, counters={}, rates={})
        legacy = result.to_json_dict()
        del legacy["wall_time_s"], legacy["from_cache"]
        loaded = JobResult.from_json_dict(legacy)
        assert loaded.wall_time_s == 0.0 and loaded.from_cache is False

    def test_as_dict_unchanged_by_provenance(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold, = SweepExecutor(jobs=1, cache=cache).run(_jobs(sizes=(4,)))
        warm, = SweepExecutor(jobs=1, cache=cache).run(_jobs(sizes=(4,)))
        assert cold.as_dict() == warm.as_dict()


class TestResultCachePut:
    def test_tmp_names_are_writer_unique(self, tmp_path):
        target = tmp_path / "ab" / "abcd.json"
        first = ResultCache._tmp_path(target)
        second = ResultCache._tmp_path(target)
        assert first != second
        assert first.name.startswith("abcd.json.")
        assert first.suffix == ".tmp"

    def test_put_leaves_no_tmp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = JobResult(engine="frontend", instructions=1, cycles=1.0,
                           ipc=1.0, counters={}, rates={})
        key = "ab" + "0" * 62
        cache.put(key, result)
        cache.put(key, result)  # same-key rewrite (the racing pattern)
        assert cache.get(key) == result
        assert not list(cache.root.rglob("*.tmp"))


class TestRunLedger:
    def _entry(self, **overrides):
        entry = {"kind": "sweep", "engines": ["frontend"], "jobs": 1,
                 "cache": {"hits": 0, "misses": 3, "hit_rate": 0.0},
                 "configs": ["aa" * 32], "headline": {"return_accuracy": 0.9}}
        entry.update(overrides)
        return entry

    def test_roundtrip_survives_restart(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        first = RunLedger(path).append(self._entry())
        second = RunLedger(path).append(self._entry(jobs=4))
        # a fresh instance (a "restarted process") sees both entries
        reopened = RunLedger(path).entries()
        assert [entry["run_id"] for entry in reopened] \
            == [first["run_id"], second["run_id"]]
        assert all(RunLedger(path).verify(entry) for entry in reopened)

    def test_get_by_index_and_prefix(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        first = ledger.append(self._entry())
        second = ledger.append(self._entry(jobs=2))
        assert ledger.get("-1")["run_id"] == second["run_id"]
        assert ledger.get("0")["run_id"] == first["run_id"]
        assert ledger.get(first["run_id"][:8])["run_id"] == first["run_id"]
        with pytest.raises(TelemetryError):
            ledger.get("zzzz")
        with pytest.raises(TelemetryError):
            ledger.get("99")

    def test_tampered_entry_fails_verification(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        entry = ledger.append(self._entry())
        assert ledger.verify(entry)
        tampered = dict(entry)
        tampered["configs"] = ["bb" * 32]  # claim a different machine
        assert not ledger.verify(tampered)

    def test_torn_tail_line_is_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.append(self._entry())
        with open(path, "a") as stream:
            stream.write('{"kind": "sweep", "truncated')  # crashed writer
        assert len(RunLedger(path).entries()) == 1

    def test_missing_ledger_is_empty_and_get_raises(self, tmp_path):
        ledger = RunLedger(tmp_path / "nope.jsonl")
        assert ledger.entries() == []
        with pytest.raises(TelemetryError):
            ledger.get("-1")


class TestSweepLedger:
    def test_executor_appends_verified_entry(self, tmp_path):
        executor = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        executor.run(_jobs())
        ledger = RunLedger.at_root(tmp_path)
        entries = ledger.entries()
        assert len(entries) == 1
        entry = entries[0]
        assert ledger.verify(entry)
        assert entry["engines"] == ["frontend"]
        assert entry["submitted"] == len(SIZES)
        assert entry["cache"] == {"hits": 0, "misses": len(SIZES),
                                  "hit_rate": 0.0}
        assert entry["workloads"] == [{"kind": "workload", "name": "li",
                                       "seed": 1, "scale": 0.05}]
        assert len(entry["configs"]) == len(SIZES)
        assert entry["wall_time_s"] > 0.0
        assert entry["headline"]["return_accuracy"] is not None
        counters = entry["metrics"]["counters"]
        assert counters["executor.jobs{engine=frontend}"] == len(SIZES)
        assert counters["executor.cache_misses"] == len(SIZES)

    def test_parallel_ledger_and_metrics_identical_to_serial(self, tmp_path):
        serial = SweepExecutor(jobs=1, cache=ResultCache(tmp_path / "a"))
        parallel = SweepExecutor(jobs=4, cache=ResultCache(tmp_path / "b"))
        serial.run(_jobs())
        parallel.run(_jobs())
        entry_serial = RunLedger.at_root(tmp_path / "a").entries()[0]
        entry_parallel = RunLedger.at_root(tmp_path / "b").entries()[0]
        # the full metrics snapshot is bit-identical...
        assert entry_serial["metrics"] == entry_parallel["metrics"]
        # ...and so is everything else except timing and the worker count
        view_serial = deterministic_view(entry_serial)
        view_parallel = deterministic_view(entry_parallel)
        assert view_serial.pop("jobs") == 1
        assert view_parallel.pop("jobs") == 4
        assert view_serial == view_parallel

    def test_warm_rerun_ledgers_full_hit_rate(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepExecutor(jobs=1, cache=cache).run(_jobs())
        SweepExecutor(jobs=1, cache=cache).run(_jobs())
        warm = RunLedger.at_root(tmp_path).entries()[-1]
        assert warm["cache"]["hits"] == len(SIZES)
        assert warm["cache"]["misses"] == 0
        assert warm["cache"]["hit_rate"] == 1.0

    def test_no_cache_means_no_ledger(self):
        executor = SweepExecutor(jobs=1, cache=None)
        executor.run(_jobs(sizes=(4,)))
        assert executor.ledger is None and executor.run_ids == []
        assert executor.last_entry is not None  # summary still built

    def test_explicit_ledger_without_cache(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        executor = SweepExecutor(jobs=1, cache=None, ledger=path)
        executor.run(_jobs(sizes=(4,)))
        assert len(RunLedger(path).entries()) == 1

    def test_executor_opt_out_suppresses_everything(self, tmp_path):
        executor = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        with telemetry.disabled():
            executor.run(_jobs(sizes=(4,)))
        assert RunLedger.at_root(tmp_path).entries() == []
        assert executor.last_trace_id is None
        assert TraceStore.at_cache_root(tmp_path).trace_ids() == []
        assert telemetry.enabled()  # the switch is restored on exit

    def test_spans_and_global_metrics_flow(self, tmp_path):
        executor = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        executor.run(_jobs())
        spans = TraceStore.at_cache_root(tmp_path).load(
            executor.last_trace_id)
        names = [s["name"] for s in spans]
        assert names.count("sweep/run") == 1
        assert names.count("sweep/job") == len(SIZES)
        assert names.count("cache/put") == len(SIZES)
        probes = [s["attrs"] for s in spans if s["name"] == "cache/get"]
        assert probes == [{"outcome": "miss"}] * len(SIZES)


class TestCompare:
    def test_compare_reports_config_and_metric_deltas(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(jobs=1, cache=cache)
        executor.run(_jobs(sizes=(1, 4)))
        executor.run(_jobs(sizes=(1, 8)))  # one config swapped
        a, b = RunLedger.at_root(tmp_path).entries()
        diff = compare_entries(a, b)
        assert diff["a"] == a["run_id"] and diff["b"] == b["run_id"]
        configs = diff["fields"]["configs"]
        assert len(configs["added"]) == 1 and len(configs["removed"]) == 1
        assert diff["metrics"]["cache.misses"]["delta"] == -1.0  # one hit
        accuracy = diff["metrics"]["headline.return_accuracy"]
        assert accuracy["a"] is not None and accuracy["b"] is not None

    def test_identical_sweeps_differ_only_in_timing(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepExecutor(jobs=1, cache=cache).run(_jobs())
        SweepExecutor(jobs=1, cache=cache).run(_jobs())
        a, b = RunLedger.at_root(tmp_path).entries()
        diff = compare_entries(a, b)
        assert "configs" not in diff["fields"]
        assert diff["metrics"]["headline.return_accuracy"]["delta"] == 0.0


class TestRunsCli:
    def _sweep_twice(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        argv = ["stack-depth", "--names", "li", "--scale", "0.05"]
        assert cli_main(argv) == 0
        assert cli_main(argv) == 0
        return str(tmp_path / "cache" / "ledger.jsonl")

    def test_runs_list_show_compare(self, tmp_path, monkeypatch, capsys):
        ledger_path = self._sweep_twice(tmp_path, monkeypatch)
        assert cli_main(["runs", "list", "--ledger", ledger_path]) == 0
        listing = capsys.readouterr().out
        assert "Run ledger" in listing and "cache hit %" in listing
        assert cli_main(["runs", "show", "-1", "--ledger", ledger_path]) == 0
        shown = capsys.readouterr().out
        assert "content hash ok" in shown
        out = tmp_path / "diff.json"
        assert cli_main(["runs", "compare", "-2", "-1",
                         "--ledger", ledger_path,
                         "--json", str(out)]) == 0
        compared = capsys.readouterr().out
        assert "identical configuration" in compared
        assert "cache.hits" in compared
        diff = json.loads(out.read_text())
        assert diff["metrics"]["cache.hit_rate"]["b"] == 1.0

    def test_runs_show_json(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert cli_main(["hit-rates", "--names", "li", "--scale", "0.05"]) == 0
        out = tmp_path / "entry.json"
        assert cli_main(["runs", "show", "-1", "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["integrity_ok"] is True
        assert payload["entry"]["run_id"]

    def test_runs_errors_are_friendly(self, tmp_path, capsys):
        missing = str(tmp_path / "none.jsonl")
        assert cli_main(["runs", "list", "--ledger", missing]) == 1
        assert cli_main(["runs", "show", "-1", "--ledger", missing]) == 1
        assert "repro-sim runs" in capsys.readouterr().err

    def test_no_telemetry_flag_writes_no_ledger(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert cli_main(["stack-depth", "--names", "li", "--scale", "0.05",
                         "--no-telemetry"]) == 0
        assert not (tmp_path / "cache" / "ledger.jsonl").exists()
        assert telemetry.enabled()  # the opt-out is scoped to the call

    def test_env_kill_switch(self, tmp_path, monkeypatch):
        telemetry.set_enabled(None)  # hand control back to the env
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert cli_main(["stack-depth", "--names", "li",
                         "--scale", "0.05"]) == 0
        assert not (tmp_path / "cache" / "ledger.jsonl").exists()

    def test_json_payload_carries_cache_stats(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "table.json"
        assert cli_main(["stack-depth", "--names", "li", "--scale", "0.05",
                         "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["cache"]["misses"] > 0
        assert payload["cache"]["hits"] == 0
        assert payload["wall_time_s"] > 0.0
        assert len(payload["run_ids"]) >= 1

    def test_cli_summary_line_on_stderr(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert cli_main(["stack-depth", "--names", "li",
                         "--scale", "0.05"]) == 0
        err = capsys.readouterr().err
        assert "cache:" in err and "hit rate" in err and "run " in err


class TestLegacyLedger:
    """Ledgers written before the remote-worker backend was retired
    carry a ``cluster`` scheduling block; they must still load."""

    CLUSTER = {
        "coordinator": "http://127.0.0.1:8736", "embedded": True,
        "submitted": 3, "local_jobs": 0, "unfinished": 0, "errors": {},
        "workers": {"host-1": {"jobs": 3, "leases": 3, "failures": 0,
                               "wall_time_s": 0.4}},
        "counts": {"done": 3}, "peaks": {"queue_depth": 3},
    }

    def _ledger(self, tmp_path):
        """A local sweep's entry, then the same entry as the cluster
        backend ledgered it, written line for line as that code did."""
        local = SweepExecutor(jobs=1, cache=ResultCache(tmp_path / "cache"),
                              ledger=None)
        local.run(_jobs())
        legacy = {key: value for key, value in local.last_entry.items()
                  if key != "run_id"}
        legacy.update(schema=1, cluster=self.CLUSTER)
        legacy["run_id"] = entry_digest(legacy)[:12]
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        first = ledger.append(local.last_entry)
        with open(path, "a") as stream:
            stream.write(json.dumps(legacy, sort_keys=True, default=str)
                         + "\n")
        return path, first, legacy

    def test_verify_and_deterministic_view(self, tmp_path):
        path, local, legacy = self._ledger(tmp_path)
        loaded = RunLedger(path).get("-1")
        assert loaded == legacy
        assert RunLedger(path).verify(loaded)
        assert "cluster" not in deterministic_view(loaded)
        assert deterministic_view(loaded) == deterministic_view(local)

    def test_runs_show_and_compare_render(self, tmp_path, capsys):
        path, local, legacy = self._ledger(tmp_path)
        assert cli_main(["runs", "show", "-1", "--ledger", str(path)]) == 0
        shown = capsys.readouterr().out
        assert "content hash ok" in shown
        assert "cluster" in shown and "host-1" in shown
        assert cli_main(["runs", "compare", local["run_id"],
                         legacy["run_id"], "--ledger", str(path)]) == 0
        assert "identical configuration" in capsys.readouterr().out


class _SelfTime:
    """Adds up the self time of the callables it wraps: the time spent
    inside one, less the time spent in wrapped callables it called."""

    def __init__(self) -> None:
        self.total = 0.0
        self._inner = [0.0]

    def call(self, fn, *args, **kwargs):
        self._inner.append(0.0)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            self.total += elapsed - self._inner.pop()
            self._inner[-1] += elapsed

    def wrap(self, fn):
        return lambda *args, **kwargs: self.call(fn, *args, **kwargs)


class _TimedSpan:
    """A ``span()`` context whose own enter and exit code is timed, but
    not the block it wraps."""

    def __init__(self, meter: _SelfTime, context) -> None:
        self._meter = meter
        self._context = context

    def __enter__(self):
        return self._meter.call(self._context.__enter__)

    def __exit__(self, *exc):
        return self._meter.call(self._context.__exit__, *exc)


class TestOverheadBudget:
    """Telemetry on (spans, trace capture and the run ledger) must cost
    under 3% of the scale-0.05 smoke sweep, with a 4 ms floor for
    degenerate sub-ms runs.

    A whole telemetry-on sweep timed against a telemetry-off one cannot
    resolve a budget of a few ms on a shared host, where the sweep alone
    varies by tens of ms between runs. The check therefore times only
    what telemetry adds: the self time of ``span``,
    ``TraceCapture.begin``/``seal``/``close`` and
    ``SweepExecutor._record_run`` in each telemetry-on sweep. The
    smallest of those sums is held against 3% of the median
    telemetry-off sweep: a preempted sweep only ever reads more, while a
    cost telemetry really adds shows in every sweep, the smallest too.
    """

    SIZES = (1, 2, 4, 8, 16, 32)
    RUNS = 5

    def _measure(self, tmp_path, monkeypatch):
        """(smallest telemetry self time, budget), both in seconds."""
        import repro.core.executor as executor_module

        meter = _SelfTime()
        real_span = executor_module.span
        begin = TraceCapture.begin.__func__
        monkeypatch.setattr(
            executor_module, "span",
            lambda *args, **attrs: _TimedSpan(meter, real_span(*args, **attrs)))
        monkeypatch.setattr(TraceCapture, "begin",
                            classmethod(meter.wrap(begin)))
        for name in ("seal", "close"):
            monkeypatch.setattr(TraceCapture, name,
                                meter.wrap(getattr(TraceCapture, name)))
        monkeypatch.setattr(SweepExecutor, "_record_run",
                            meter.wrap(SweepExecutor._record_run))
        ledger_path = tmp_path / "ledger.jsonl"
        traced = []

        def sweep(telemetry_on: bool) -> "tuple[float, float]":
            telemetry.set_enabled(telemetry_on)
            executor = SweepExecutor(
                jobs=1, cache=None,
                ledger=ledger_path if telemetry_on else None)
            meter.total = 0.0
            started = time.perf_counter()
            stack_depth_sweep(SPEC, self.SIZES, executor=executor)
            elapsed = time.perf_counter() - started
            traced.append(executor.last_trace_id is not None)
            return elapsed, meter.total

        sweep(False)  # warm the program build memo before timing
        sweep(True)
        off, added = [], []
        for _ in range(self.RUNS):
            off.append(sweep(False)[0])
            added.append(sweep(True)[1])
        telemetry.set_enabled(True)
        # the instrumented runs really did trace and ledger their sweeps
        assert traced == [False, True] * (self.RUNS + 1)
        assert len(RunLedger(ledger_path).entries()) == self.RUNS + 1
        return min(added), max(0.03 * statistics.median(off), 0.004)

    def test_overhead_under_three_percent_on_smoke_sweep(self, tmp_path,
                                                          monkeypatch):
        overhead, budget = self._measure(tmp_path, monkeypatch)
        assert overhead <= budget, (
            f"telemetry adds {overhead * 1000:.2f} ms per sweep, over its "
            f"{budget * 1000:.2f} ms budget")

    def test_injected_record_run_delay_fails_the_check(self, tmp_path,
                                                       monkeypatch):
        """5 ms more in ``_record_run`` must break the budget: the check
        sees real overhead, not just host noise."""
        record_run = SweepExecutor._record_run

        def slow_record_run(self, *args, **kwargs):
            time.sleep(0.005)
            return record_run(self, *args, **kwargs)

        monkeypatch.setattr(SweepExecutor, "_record_run", slow_record_run)
        overhead, budget = self._measure(tmp_path, monkeypatch)
        assert overhead > budget, (
            f"a 5 ms delay in _record_run went unseen: "
            f"{overhead * 1000:.2f} ms against a {budget * 1000:.2f} ms "
            f"budget")
