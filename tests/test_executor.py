"""Tests for the parallel experiment executor and the result cache."""

import argparse
import gc
import json
import subprocess
import sys

import pytest

from repro.cli import main as cli_main
from repro.config import RepairMechanism
from repro.config.defaults import baseline_config
from repro.core import ExperimentJob, JobResult, ResultCache, SweepExecutor
from repro.core import executor as executor_module
from repro.core.experiment import WorkloadSpec, build_program
from repro.core.sweep import mechanism_sweep, stack_depth_sweep
from repro.core.tables import fig_speedup, table3_baseline
from repro.telemetry import RunLedger

SPEC = WorkloadSpec("li", seed=1, scale=0.05)
MECHANISMS = (RepairMechanism.NONE, RepairMechanism.TOS_POINTER_AND_CONTENTS)


def _jobs():
    return [ExperimentJob(SPEC, baseline_config().with_repair(m), "cycle")
            for m in MECHANISMS]


class TestFingerprint:
    def test_stable_across_equal_configs(self):
        assert (baseline_config().fingerprint()
                == baseline_config().fingerprint())

    def test_differs_on_any_field(self):
        base = baseline_config()
        assert base.fingerprint() != base.without_ras().fingerprint()
        assert (base.fingerprint()
                != base.with_ras_entries(16).fingerprint())
        assert (base.with_repair(RepairMechanism.NONE).fingerprint()
                != base.with_repair(RepairMechanism.FULL_STACK).fingerprint())

    def test_construction_path_irrelevant(self):
        direct = baseline_config().with_repair(
            RepairMechanism.TOS_POINTER_AND_CONTENTS)
        assert direct.fingerprint() == baseline_config().fingerprint()


class TestJobs:
    def test_unknown_engine_rejected(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            ExperimentJob(SPEC, baseline_config(), "warp-drive")

    def test_program_workload_is_uncacheable(self):
        job = ExperimentJob(build_program(SPEC), baseline_config(), "cycle")
        assert not job.cacheable
        assert job.cache_key() is None

    def test_spec_workload_key_is_stable_and_input_sensitive(self):
        job = ExperimentJob(SPEC, baseline_config(), "cycle")
        assert job.cache_key() == job.cache_key()
        other_engine = ExperimentJob(SPEC, baseline_config(), "fast")
        other_config = ExperimentJob(SPEC, baseline_config().without_ras(),
                                     "cycle")
        other_spec = ExperimentJob(WorkloadSpec("li", seed=2, scale=0.05),
                                   baseline_config(), "cycle")
        keys = {job.cache_key(), other_engine.cache_key(),
                other_config.cache_key(), other_spec.cache_key()}
        assert len(keys) == 4


class TestExecutor:
    def test_parallel_matches_serial_rows(self):
        serial = SweepExecutor(jobs=1, cache=None).run(_jobs())
        parallel = SweepExecutor(jobs=2, cache=None).run(_jobs())
        assert [r.as_dict() for r in serial] == [r.as_dict() for r in parallel]

    def test_table_builder_parallel_identical(self):
        serial = fig_speedup(names=("li",), seed=1, scale=0.05,
                             executor=SweepExecutor(jobs=1, cache=None))
        parallel = fig_speedup(names=("li",), seed=1, scale=0.05,
                               executor=SweepExecutor(jobs=2, cache=None))
        assert serial == parallel

    def test_engines_populate_expected_stats(self):
        cycle, = SweepExecutor(cache=None).run(
            [ExperimentJob(SPEC, baseline_config(), "cycle")])
        assert cycle.instructions > 100
        assert cycle.btb_hit_rate is not None
        assert cycle.counter("mispredictions") > 0
        fast, = SweepExecutor(cache=None).run(
            [ExperimentJob(SPEC, baseline_config(), "fast")])
        assert fast.return_accuracy is not None and fast.ipc > 0


class TestResultCache:
    def test_hit_skips_simulation(self, tmp_path):
        cold = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        first = cold.run(_jobs())
        assert cold.cache_misses == len(MECHANISMS)
        before = executor_module.simulation_calls()
        warm = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        second = warm.run(_jobs())
        assert executor_module.simulation_calls() == before  # zero re-sims
        assert warm.cache_hits == len(MECHANISMS) and warm.cache_misses == 0
        assert [r.as_dict() for r in first] == [r.as_dict() for r in second]

    def test_corrupted_entry_is_a_miss_not_fatal(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(jobs=1, cache=cache)
        executor.run(_jobs())
        entries = list(cache.root.rglob("*.json"))
        assert len(entries) == len(MECHANISMS)
        entries[0].write_text("{ not json !!")
        entries[1].write_text(json.dumps({"key": "stale", "result": {}}))
        rerun = SweepExecutor(jobs=1, cache=cache)
        results = rerun.run(_jobs())
        assert rerun.cache_misses == 2  # both bad entries re-simulated
        assert results[0].instructions > 0

    def test_roundtrip_preserves_none_rates(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = JobResult(engine="cycle", instructions=1, cycles=2.0,
                           ipc=0.5, counters={"mispredictions": 3},
                           rates={"indirect_accuracy": None,
                                  "return_accuracy": 0.75})
        key = "ab" + "0" * 62
        cache.put(key, result)
        loaded = cache.get(key)
        assert loaded == result

    def test_program_jobs_never_touch_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(jobs=1, cache=cache)
        executor.run([ExperimentJob(build_program(SPEC), baseline_config(),
                                    "cycle")])
        assert executor.cache_hits == 0 and executor.cache_misses == 0
        assert not list(cache.root.rglob("*.json"))


class TestSweepsThroughExecutor:
    def test_mechanism_sweep_accepts_spec_and_program(self):
        executor = SweepExecutor(cache=None)
        by_spec = mechanism_sweep(SPEC, MECHANISMS, executor=executor)
        by_program = mechanism_sweep(build_program(SPEC), MECHANISMS,
                                     executor=executor)
        assert by_spec == by_program

    def test_stack_depth_sweep_shares_one_build(self):
        results = stack_depth_sweep(SPEC, (1, 32),
                                    executor=SweepExecutor(cache=None))
        assert results[32] >= results[1]
        # the memoisation contract: both jobs resolved the same Program
        assert build_program(SPEC) is build_program(SPEC)


class TestCliFlags:
    def test_jobs_and_json_flags(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "speedup.json"
        assert cli_main([
            "speedup", "--names", "li", "--scale", "0.05",
            "--jobs", "2", "--json", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "speedup"
        assert payload["headers"][0] == "benchmark"
        assert payload["rows"][0][0] == "li"
        assert payload["scale"] == 0.05

    def test_no_cache_leaves_cache_dir_empty(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert cli_main([
            "hit-rates", "--names", "li", "--scale", "0.05", "--no-cache",
        ]) == 0
        assert not (tmp_path / "cache").exists()

    def test_warm_cli_rerun_simulates_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert cli_main(["speedup", "--names", "li", "--scale", "0.05"]) == 0
        before = executor_module.simulation_calls()
        assert cli_main(["speedup", "--names", "li", "--scale", "0.05"]) == 0
        assert executor_module.simulation_calls() == before

    def test_scale_out_of_range_rejected(self, tmp_path, monkeypatch,
                                         capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert cli_main(["hit-rates", "--scale", "5"]) == 1
        assert capsys.readouterr().err.strip() == (
            "repro-sim hit-rates: scale 5.0 out of range (0, 4]")
        assert cli_main(["speedup", "--scale", "0"]) == 1
        assert not (tmp_path / "cache").exists()

    def test_cli_import_loads_no_network_stack(self):
        """The CLI runs sweeps locally: importing it loads no asyncio
        and no repro.service / repro.cluster package."""
        probe = ("import sys, repro.cli; print('\\n'.join(sorted("
                 "name for name in sys.modules if name == 'asyncio' "
                 "or name.startswith(('asyncio.', 'repro.service', "
                 "'repro.cluster')))))")
        loaded = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            check=True).stdout.split()
        assert loaded == []


class TestCliParser:
    def test_parser_built_once(self, tmp_path, capsys):
        """Repeated main() calls reuse one argparse tree, so commands
        leave no parser garbage for the cycle collector."""
        argv = ["runs", "list", "--ledger", str(tmp_path / "ledger.jsonl")]
        cli_main(argv)  # the first call in this process may build it

        def parsers():
            return sum(isinstance(obj, argparse.ArgumentParser)
                       for obj in gc.get_objects())

        gc.disable()
        try:
            before = parsers()
            for _ in range(3):
                cli_main(argv)
            assert parsers() == before
        finally:
            gc.enable()

    def test_env_defaults_read_per_call(self, tmp_path, monkeypatch):
        out = tmp_path / "table1.json"
        roots = [tmp_path / "cache1", tmp_path / "cache2"]
        seen = []
        for seed, scale, root in (("3", "0.5", roots[0]),
                                  ("7", "0.125", roots[1])):
            monkeypatch.setenv("REPRO_SEED", seed)
            monkeypatch.setenv("REPRO_SCALE", scale)
            monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
            assert cli_main(["table1", "--json", str(out)]) == 0
            payload = json.loads(out.read_text())
            seen.append((payload["seed"], payload["scale"]))
            assert cli_main(["stack-depth", "--names", "li",
                             "--scale", "0.02"]) == 0
        assert seen == [(3, 0.5), (7, 0.125)]
        # each sweep wrote to the cache root of its own call
        assert [len(RunLedger.at_root(root).entries())
                for root in roots] == [1, 1]

    @pytest.mark.parametrize("argv", [
        ["run", "--benchmark", "li", "--json", "x.json"],
        ["disasm", "--benchmark", "li", "--jobs", "2"],
        ["smt", "--names", "li"],
        ["report", "--json", "x.json"],
    ])
    def test_commands_reject_flags_they_would_ignore(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestLedgerPaths:
    def test_ledger_path_beside_cache_root(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.ledger_path.parent == tmp_path / "cache"

    def test_default_ledger_path_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        assert ResultCache.default_ledger_path().parent == tmp_path / "alt"


class TestTables:
    def test_table3_btb_rate_survives_summarisation(self):
        title, headers, rows = table3_baseline(
            names=("li",), seed=1, scale=0.05,
            executor=SweepExecutor(cache=None))
        btb_column = headers.index("btb hit %")
        assert rows[0][btb_column] is not None
        assert 0.0 < rows[0][btb_column] <= 100.0
