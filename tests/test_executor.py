"""Tests for the parallel experiment executor and the result cache."""

import argparse
import dataclasses
import gc
import hashlib
import importlib.util
import json
import pickle
import subprocess
import sys
import textwrap
import types

import pytest

from repro.cli import main as cli_main
from repro.config import (BranchPredictorConfig, CoreConfig, MachineConfig,
                          MultipathConfig, RepairMechanism, StackOrganization)
from repro.config import machine as machine_module
from repro.config.defaults import baseline_config
from repro.core import ExperimentJob, JobResult, ResultCache, SweepExecutor
from repro.core import executor as executor_module
from repro.core.experiment import (WorkloadSpec, build_program,
                                   multipath_machine)
from repro.core.sweep import mechanism_sweep, stack_depth_sweep
from repro.core.tables import (fig_hit_rates, fig_multipath, fig_speedup,
                               table3_baseline)
from repro.telemetry import RunLedger

SPEC = WorkloadSpec("li", seed=1, scale=0.05)
MECHANISMS = (RepairMechanism.NONE, RepairMechanism.TOS_POINTER_AND_CONTENTS)


def _jobs():
    return [ExperimentJob(SPEC, baseline_config().with_repair(m), "cycle")
            for m in MECHANISMS]


#: ``MachineConfig.fingerprint()`` digests. Ledger entries keep them
#: across code versions and ``runs compare`` diffs them, so the encoding
#: must not drift.
GOLDEN_FINGERPRINTS = {
    "baseline":
        "d0abc3683328705deb4a123dc8c247d145bb81a67da1ad2a7528838973cfd82b",
    "without_ras()":
        "6e81943ccd3b26606e297745a645a82f1fcf6c5eddd5124dc69c32907f6ecedb",
    "with_ras_entries(16)":
        "e47c97e97fb035839ec01505fcf0333aaf473b04f66ba4ec04da25a8d0143f47",
    "with_contents_depth(4)":
        "6a47688e97b637532e672786f5fb85ecf7707b959505dacef0bc237cf9e55f94",
    "with_multipath(4, unified)":
        "d08f8b66c777b35b2101376db3a9856e6ee4b47ce918753a29e667310af84d99",
    "with_repair(none)":
        "72f6ca8e4bbf94f5479b7ce1c51613c65375d6964701d6bc20a9c3c669c5e0f1",
    "with_repair(tos-pointer)":
        "09cd56f53ca7a93577dedf87d4b134d3d397d0a375cdfaf86ee6d81cf3902ced",
    "with_repair(tos-pointer-contents)":
        "d0abc3683328705deb4a123dc8c247d145bb81a67da1ad2a7528838973cfd82b",
    "with_repair(full-stack)":
        "198399b51837939174e65ac5cb313a5e62e5405a5d5c8c67811f670dbb39067c",
    "with_repair(valid-bits)":
        "3dd83797c6fc413b32746ee342df8541058a04c79e9b2c1a0be14bea4377afcf",
    "with_repair(self-checkpoint)":
        "5b4ebdd432263d041c1aa3623bb58dd128058d1d98c81ae08d39e332103188d6",
    "with_repair(champsim)":
        "b8ece22e3ad227035fb318849b0ac5bc3d0bc10a93cd4244f29a4d78547265cb",
    "multipath_machine(2, per-path)":
        "be5ec3aeb9c26140641a97778673f42a8dbe9d3b9d271e73e3d0b8e6a0a70aa5",
    "multipath_machine(4, unified)":
        "cbb59ddbc02669aac56c333ab2a365efdd21156891700e87cea1192bb5abf4a1",
}


def _golden_configs():
    base = baseline_config()
    configs = {
        "baseline": base,
        "without_ras()": base.without_ras(),
        "with_ras_entries(16)": base.with_ras_entries(16),
        "with_contents_depth(4)": base.with_contents_depth(4),
        "with_multipath(4, unified)": base.with_multipath(
            4, StackOrganization.UNIFIED),
        "multipath_machine(2, per-path)": multipath_machine(
            2, StackOrganization.PER_PATH),
        "multipath_machine(4, unified)": multipath_machine(
            4, StackOrganization.UNIFIED),
    }
    for mechanism in RepairMechanism:
        configs[f"with_repair({mechanism.value})"] = base.with_repair(
            mechanism)
    return configs


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

    @pytest.mark.parametrize("name", sorted(_golden_configs()))
    def test_golden_digest(self, name):
        assert (_golden_configs()[name].fingerprint()
                == GOLDEN_FINGERPRINTS[name])

    @pytest.mark.parametrize("int_first", [True, False])
    def test_equal_configs_keep_their_own_digests(self, int_first):
        as_int = MachineConfig()
        as_float = MachineConfig(core=CoreConfig(fetch_width=4.0))
        assert as_int == as_float and hash(as_int) == hash(as_float)
        order = [as_int, as_float] if int_first else [as_float, as_int]
        for config in order:
            config.fingerprint()
        assert as_int.fingerprint() == GOLDEN_FINGERPRINTS["baseline"]
        assert as_float.fingerprint() != as_int.fingerprint()

    def test_memo_is_invisible(self):
        config = baseline_config().with_ras_entries(16)
        before = (dataclasses.fields(config), dataclasses.asdict(config),
                  hash(config), repr(config))
        digest = config.fingerprint()
        assert (dataclasses.fields(config), dataclasses.asdict(config),
                hash(config), repr(config)) == before
        assert config == baseline_config().with_ras_entries(16)
        assert config.fingerprint() == digest

    def test_pickle_round_trip_keeps_digest(self):
        digest = GOLDEN_FINGERPRINTS["with_ras_entries(16)"]
        fresh = baseline_config().with_ras_entries(16)
        assert pickle.loads(pickle.dumps(fresh)).fingerprint() == digest
        fresh.fingerprint()
        assert pickle.loads(pickle.dumps(fresh)).fingerprint() == digest

    def test_derived_configs_do_not_inherit_the_memo(self):
        base = baseline_config()
        base.fingerprint()
        assert (base.with_repair(RepairMechanism.NONE).fingerprint()
                == GOLDEN_FINGERPRINTS["with_repair(none)"])
        widened = dataclasses.replace(
            base, predictor=dataclasses.replace(base.predictor,
                                                ras_entries=16))
        assert (widened.fingerprint()
                == GOLDEN_FINGERPRINTS["with_ras_entries(16)"])

    def test_baseline_is_one_shared_instance(self):
        assert baseline_config() is baseline_config()

    @pytest.mark.parametrize("method, args, part", [
        ("with_repair", (RepairMechanism.NONE,), BranchPredictorConfig),
        ("with_ras_entries", (16,), BranchPredictorConfig),
        ("without_ras", (), BranchPredictorConfig),
        ("with_multipath", (4, StackOrganization.UNIFIED), MultipathConfig),
    ], ids=["with_repair", "with_ras_entries", "without_ras",
            "with_multipath"])
    def test_derived_config_encodes_only_the_replaced_part(
            self, method, args, part, monkeypatch):
        base = baseline_config()
        base.fingerprint()
        derived = getattr(base, method)(*args)
        walked = []
        plain = machine_module._plain

        def counting_plain(value):
            walked.append(value)
            return plain(value)

        monkeypatch.setattr(machine_module, "_plain", counting_plain)
        derived.fingerprint()
        configs = [type(value) for value in walked
                   if dataclasses.is_dataclass(value)]
        assert configs == [part]

    def test_warm_rerun_hashes_each_config_object_once(self, tmp_path,
                                                       monkeypatch):
        # cache_key fingerprints each submitted config; the ledger's
        # `configs` must read that digest, not hash the payload again
        fig_hit_rates(names=("li",), scale=0.02, executor=SweepExecutor(
            jobs=1, cache=ResultCache(tmp_path)))
        hashed = []

        def sha256(data):
            hashed.append(data)
            return hashlib.sha256(data)

        monkeypatch.setattr(machine_module, "hashlib",
                            types.SimpleNamespace(sha256=sha256))
        warm = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        fig_hit_rates(names=("li",), scale=0.02, executor=warm)
        assert warm.cache_hits == 4 and warm.cache_misses == 0
        assert len(warm.ledger.get(warm.run_ids[-1])["configs"]) == 4
        assert len(hashed) == 4


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
        other_engine = ExperimentJob(SPEC, baseline_config(), "frontend")
        other_config = ExperimentJob(SPEC, baseline_config().without_ras(),
                                     "cycle")
        other_spec = ExperimentJob(WorkloadSpec("li", seed=2, scale=0.05),
                                   baseline_config(), "cycle")
        keys = {job.cache_key(), other_engine.cache_key(),
                other_config.cache_key(), other_spec.cache_key()}
        assert len(keys) == 4

    def test_key_is_sha256_of_the_sorted_json_payload(self):
        # cached entries outlive code versions only through their keys,
        # so the key bytes must stay those of json.dumps(sort_keys=True)
        config = baseline_config().with_ras_entries(16)
        job = ExperimentJob(SPEC, config, "cycle-fast", max_instructions=500)
        payload = json.dumps({
            "schema": executor_module.CACHE_SCHEMA,
            "workload": {"name": "li", "seed": 1, "scale": 0.05},
            "config": GOLDEN_FINGERPRINTS["with_ras_entries(16)"],
            "engine": "cycle-fast",
            "max_instructions": 500,
            "code": executor_module.code_fingerprint(),
        }, sort_keys=True)
        assert job.cache_key() == hashlib.sha256(payload.encode()).hexdigest()


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
            [ExperimentJob(SPEC, baseline_config(), "frontend")])
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
        jobs = _jobs() + [ExperimentJob(
            SPEC, baseline_config().with_repair(RepairMechanism.FULL_STACK),
            "cycle")]
        SweepExecutor(jobs=1, cache=cache).run(jobs)
        entries = list(cache.root.rglob("*.json"))
        assert len(entries) == 3
        entries[0].write_text("{ not json !!")
        entries[1].write_text(json.dumps({"key": "stale", "result": {}}))
        # an entry without the provenance fields every writer stores
        unstamped = json.loads(entries[2].read_text())
        del unstamped["result"]["wall_time_s"]
        del unstamped["result"]["from_cache"]
        entries[2].write_text(json.dumps(unstamped))
        rerun = SweepExecutor(jobs=1, cache=cache)
        results = rerun.run(jobs)
        assert rerun.cache_misses == 3  # every bad entry re-simulated
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
        capsys.readouterr()
        assert not (tmp_path / "cache").exists()
        # every command with --scale checks it the same way, flag or env
        corpus = str(tmp_path / "corpus")
        for argv in (["corruption"], ["return-predictors"], ["table2"],
                     ["smt"], ["run", "--benchmark", "li"],
                     ["disasm", "--benchmark", "li"], ["report"],
                     ["corpus", "build", corpus]):
            assert cli_main(argv + ["--scale", "0"]) == 1, argv
            monkeypatch.setenv("REPRO_SCALE", "0")
            assert cli_main(argv) == 1, argv
            monkeypatch.delenv("REPRO_SCALE")
            message = f"repro-sim {argv[0]}: scale 0.0 out of range (0, 4]"
            assert capsys.readouterr().err.split("\n") == [message] * 2 + [""]
        assert cli_main(["table2", "--scale", "9"]) == 1
        assert capsys.readouterr().err.strip() == (
            "repro-sim table2: scale 9.0 out of range (0, 4]")
        assert not (tmp_path / "cache").exists()
        assert not (tmp_path / "corpus").exists()

    def test_cli_import_loads_no_network_stack(self):
        """The CLI runs sweeps locally: importing it and running a cold
        table in-process loads no asyncio, no repro.service /
        repro.cluster package, no numpy, no process-pool stack, no
        concurrent.futures or logging, and neither reference cycle
        engine (the table runs on ``cycle-fast``). The first block
        decode loads numpy, wherever numpy imports."""
        probe = textwrap.dedent("""
            import contextlib, io, json, sys
            import repro.cli
            with contextlib.redirect_stdout(io.StringIO()):
                status = repro.cli.main([
                    "hit-rates", "--names", "li", "--scale", "0.01",
                    "--jobs", "1", "--no-cache"])
            loaded = sorted(
                name for name in sys.modules
                if name in ("asyncio", "numpy", "multiprocessing",
                            "concurrent.futures", "logging",
                            "repro.pipeline.cpu", "repro.pipeline.timeline",
                            "repro.multipath.cpu")
                or name.startswith(("asyncio.", "numpy.", "multiprocessing.",
                                    "concurrent.futures.", "logging.",
                                    "repro.service", "repro.cluster")))
            from repro.fastsim.batch import decoder_backend
            print(json.dumps({"status": status, "loaded": loaded,
                              "backend": decoder_backend(),
                              "numpy": "numpy" in sys.modules}))
        """)
        probed = json.loads(subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            check=True).stdout.splitlines()[-1])
        assert probed["status"] == 0
        assert probed["loaded"] == []
        has_numpy = importlib.util.find_spec("numpy") is not None
        assert probed["backend"] == ("numpy" if has_numpy else "python")
        assert probed["numpy"] == has_numpy


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
        executor = SweepExecutor(jobs=1, cache=ResultCache(tmp_path / "cache"))
        assert executor.ledger.path.parent == tmp_path / "cache"

    def test_default_ledger_path_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert SweepExecutor(jobs=1).ledger.path.parent == tmp_path / "alt"


class TestTables:
    def test_fig_multipath_derives_each_config_once(self):
        class Recorder(SweepExecutor):
            def run(self, jobs):
                self.submitted = list(jobs)
                return [JobResult(engine=job.engine, instructions=1,
                                  cycles=1.0, ipc=1.0, counters={}, rates={})
                        for job in jobs]

        recorder = Recorder(cache=None)
        fig_multipath(executor=recorder)
        configs = {id(job.config): job.config for job in recorder.submitted}
        assert len(recorder.submitted) == 24 and len(configs) == 6
        base = baseline_config()
        for config in configs.values():
            assert config.predictor is base.predictor
            assert config.memory is base.memory

    def test_table3_btb_rate_survives_summarisation(self):
        title, headers, rows = table3_baseline(
            names=("li",), seed=1, scale=0.05,
            executor=SweepExecutor(cache=None))
        btb_column = headers.index("btb hit %")
        assert rows[0][btb_column] is not None
        assert 0.0 < rows[0][btb_column] <= 100.0
