"""Unit tests for the experiment layer (core) and the CLI."""

import pytest

from repro.cli import main as cli_main
from repro.config import RepairMechanism, StackOrganization
from repro.core import (
    ResultCache,
    SweepExecutor,
    WorkloadSpec,
    build_program,
    fig_hit_rates,
    multipath_machine,
    run_cycle,
    run_fast,
    table1,
    table4_btb_only,
    tables,
)
from repro.core.sweep import mechanism_sweep, multipath_sweep, stack_depth_sweep
from repro.stats.tables import format_table


class TestExperimentRunners:
    def test_build_program_is_cached(self):
        spec = WorkloadSpec("li", seed=1, scale=0.05)
        assert build_program(spec) is build_program(spec)

    def test_run_cycle_returns_result_and_cpu(self):
        program = build_program(WorkloadSpec("m88ksim", seed=1, scale=0.05))
        result, cpu = run_cycle(program)
        assert result.instructions > 100
        assert cpu.done

    def test_run_fast(self):
        program = build_program(WorkloadSpec("m88ksim", seed=1, scale=0.05))
        result = run_fast(program)
        assert result.instructions > 100

    def test_multipath_machine_scales_frontend(self):
        config = multipath_machine(4, StackOrganization.PER_PATH)
        assert config.core.fetch_width == 8
        assert config.multipath.max_paths == 4
        two = multipath_machine(2, StackOrganization.UNIFIED)
        assert two.core.fetch_width == 4


class TestTableBuilders:
    def test_table1_static(self):
        title, headers, rows = table1()
        assert "Table 1" in title
        assert len(rows) > 10

    def test_fig_hit_rates_shape(self):
        title, headers, rows = fig_hit_rates(
            names=("li",), seed=1, scale=0.05)
        assert len(rows) == 1
        assert len(rows[0]) == 5  # name + 4 mechanisms

    def test_table4_small(self):
        title, headers, rows = table4_btb_only(
            names=("li",), seed=1, scale=0.05)
        assert rows[0][1] < rows[0][2]  # BTB-only below with-RAS

    def test_hardware_cost_reruns_from_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        first, second = (SweepExecutor(cache=cache) for _ in range(2))
        table = tables.ablation_hardware_cost(scale=0.02, executor=first)
        assert first.cache_stats()["misses"] == len(RepairMechanism)
        assert tables.ablation_hardware_cost(
            scale=0.02, executor=second) == table
        assert second.cache_stats()["hits"] == len(RepairMechanism)
        assert second.cache_stats()["misses"] == 0


class TestSweeps:
    @pytest.fixture(scope="class")
    def program(self):
        return build_program(WorkloadSpec("li", seed=1, scale=0.08))

    def test_mechanism_sweep(self, program):
        results = mechanism_sweep(
            program, (RepairMechanism.NONE, RepairMechanism.FULL_STACK))
        assert (results[RepairMechanism.NONE]["return_accuracy"]
                < results[RepairMechanism.FULL_STACK]["return_accuracy"])

    def test_stack_depth_sweep_monotone_ends(self, program):
        results = stack_depth_sweep(program, (1, 32))
        assert results[32] >= results[1]

    def test_multipath_sweep(self, program):
        rows = multipath_sweep(program, (2,),
                               (StackOrganization.PER_PATH,))
        assert rows[0]["paths"] == 2
        assert rows[0]["forks"] >= 0


class TestCli:
    def test_table1(self, capsys):
        assert cli_main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "baseline machine model" in out

    def test_run_single_path(self, capsys):
        assert cli_main([
            "run", "--benchmark", "li", "--scale", "0.05",
            "--mechanism", "tos-pointer-contents",
        ]) == 0
        out = capsys.readouterr().out
        assert "ipc" in out

    def test_run_btb_only(self, capsys):
        assert cli_main([
            "run", "--benchmark", "li", "--scale", "0.05", "--no-ras",
        ]) == 0
        assert "return_accuracy" in capsys.readouterr().out

    def test_run_multipath(self, capsys):
        assert cli_main([
            "run", "--benchmark", "go", "--scale", "0.05",
            "--paths", "2", "--stacks", "per-path",
        ]) == 0
        assert "ipc" in capsys.readouterr().out

    def test_disasm(self, capsys):
        assert cli_main([
            "disasm", "--benchmark", "li", "--count", "5",
        ]) == 0
        assert "main:" in capsys.readouterr().out

    def test_hit_rates_with_names(self, capsys):
        assert cli_main([
            "hit-rates", "--names", "m88ksim", "--scale", "0.05",
        ]) == 0
        assert "m88ksim" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert cli_main(["table2", "--names", "ijpeg", "--scale", "0.05"]) == 0
        assert "ijpeg" in capsys.readouterr().out

    def test_smt_command(self, capsys):
        assert cli_main([
            "smt", "--benchmark", "li", "--threads", "2", "--scale", "0.05",
        ]) == 0
        out = capsys.readouterr().out
        assert "per-thread" in out and "shared" in out

    @pytest.mark.parametrize("argv, builder, kwargs", [
        (["table2", "--names", "li", "--scale", "0.05"],
         "table2_workloads", {"names": ["li"]}),
        (["corruption", "--names", "li", "--scale", "0.05"],
         "analysis_corruption", {"names": ["li"]}),
        (["return-predictors", "--names", "li", "--scale", "0.05"],
         "analysis_return_predictors", {"names": ["li"]}),
        (["smt", "--benchmark", "li", "--threads", "2", "--scale", "0.05"],
         "smt_stacks", {"names": ["li"], "threads": [2]}),
    ], ids=["table2", "corruption", "return-predictors", "smt"])
    def test_prints_its_builders_table(self, capsys, argv, builder, kwargs):
        assert cli_main(argv) == 0
        title, headers, rows = getattr(tables, builder)(
            seed=1, scale=0.05, **kwargs)
        expected = format_table(headers, rows, title=title) + "\n"
        assert capsys.readouterr().out == expected
