"""Tests for the columnar cycle engines and their executor wiring.

The deep parity matrix (every repair mechanism and stack size) lives
here, together with the checks that the paper's tables run on these
engines and that every machine those tables configure keeps parity;
the harness that performs the comparison is itself tested in
``tests/test_parity_harness.py``.
"""

import functools
import gc
import inspect

import pytest

from repro.cli import main as cli_main
from repro.config.defaults import baseline_config
from repro.config.options import RepairMechanism, StackOrganization
from repro.core import ExperimentJob, SweepExecutor, sweep, tables
from repro.core.executor import ENGINES
from repro.core.experiment import (
    WorkloadSpec,
    build_program,
    multipath_machine,
    run_cycle,
    run_multipath,
)
from repro.fastsim.cycle import ColumnarCycleCPU, run_cycle_fast
from repro.fastsim.decode import DecodeTable, decode_table
from repro.fastsim.multipath import FastMultipathCPU, run_multipath_fast
from repro.fastsim.parity import (
    check_cycle_parity,
    check_multipath_parity,
    flatten_group,
)
from repro.isa.opcodes import Opcode
from repro.workloads.generator import build_workload

SPEC = WorkloadSpec("li", seed=1, scale=0.02)


def _program(name="li", scale=0.02):
    return build_workload(name, seed=1, scale=scale)


@functools.lru_cache(maxsize=None)
def _matrix_cell(mechanism, entries):
    """Flat counters of ``(reference, fast)`` for one matrix cell, so the
    parity and stall tests below simulate each cell once."""
    config = (baseline_config()
              .with_repair(mechanism)
              .with_ras_entries(entries))
    program = _program()
    reference, _ = run_cycle(program, config)
    fast, _ = run_cycle_fast(program, config)
    return flatten_group(reference.group), flatten_group(fast.group)


class TestCycleParityMatrix:
    @pytest.mark.parametrize("mechanism", list(RepairMechanism))
    @pytest.mark.parametrize("entries", [8, 32])
    def test_every_mechanism_and_stack_size(self, mechanism, entries):
        reference, fast = _matrix_cell(mechanism, entries)
        assert reference == fast

    @pytest.mark.parametrize("mechanism", list(RepairMechanism))
    @pytest.mark.parametrize("entries", [8, 32])
    def test_stall_dependency_is_never_charged(self, mechanism, entries):
        """The RUU head's producers are older than the head, so they have
        committed: a stalled head waits on issue, never on operands."""
        reference, fast = _matrix_cell(mechanism, entries)
        assert reference["stall_dependency"] == fast["stall_dependency"] == 0
        assert reference["stall_issue"] > 0

    def test_no_ras_machine(self):
        config = baseline_config().without_ras()
        program = _program()
        reference, _ = run_cycle(program, config)
        fast, _ = run_cycle_fast(program, config)
        assert flatten_group(reference.group) == flatten_group(fast.group)

    def test_max_instructions_truncation(self):
        program = _program()
        reference, _ = run_cycle(program, baseline_config(),
                                 max_instructions=500)
        fast, _ = run_cycle_fast(program, baseline_config(),
                                 max_instructions=500)
        assert reference.instructions == fast.instructions == 500
        assert flatten_group(reference.group) == flatten_group(fast.group)


class TestMultipathParity:
    @pytest.mark.parametrize("organization", list(StackOrganization))
    def test_every_stack_organization(self, organization):
        config = multipath_machine(2, organization)
        program = _program()
        reference, _ = run_multipath(program, config)
        fast, _ = run_multipath_fast(program, config)
        assert flatten_group(reference.group) == flatten_group(fast.group)

    def test_wider_path_budget(self):
        config = multipath_machine(4, StackOrganization.PER_PATH)
        program = _program()
        reference, _ = run_multipath(program, config)
        fast, _ = run_multipath_fast(program, config)
        assert flatten_group(reference.group) == flatten_group(fast.group)

    @pytest.mark.parametrize("organization", list(StackOrganization))
    def test_fork_heavy_program(self, organization):
        """go forks 522-558 times a cell here (li: 143-247), so forks,
        fork-child IFQ rows and cross-path visibility get exercised."""
        config = multipath_machine(4, organization)
        program = _program("go")
        reference, _ = run_multipath(program, config)
        fast, _ = run_multipath_fast(program, config)
        assert fast.counter("forks") > 400
        assert flatten_group(reference.group) == flatten_group(fast.group)


class TestHotLoopLocals:
    @pytest.mark.parametrize("engine", [ColumnarCycleCPU, FastMultipathCPU])
    def test_run_has_no_closure_cells(self, engine):
        """A variable a nested comprehension or generator reads becomes a
        closure cell, and every hot-loop access to it a LOAD_DEREF."""
        assert engine.run.__code__.co_cellvars == ()


class TestExecutorWiring:
    def test_fast_engines_registered(self):
        assert "cycle-fast" in ENGINES
        assert "multipath-fast" in ENGINES

    def test_cycle_fast_job_matches_cycle_job(self):
        config = baseline_config()
        executor = SweepExecutor(cache=None)
        reference, fast = executor.run([
            ExperimentJob(SPEC, config, "cycle"),
            ExperimentJob(SPEC, config, "cycle-fast"),
        ])
        assert fast.cycles == reference.cycles
        assert fast.instructions == reference.instructions
        assert fast.counters == reference.counters
        assert fast.rates == reference.rates  # includes btb_hit_rate

    def test_multipath_fast_job_matches_multipath_job(self):
        config = multipath_machine(2, StackOrganization.PER_PATH)
        executor = SweepExecutor(cache=None)
        reference, fast = executor.run([
            ExperimentJob(SPEC, config, "multipath"),
            ExperimentJob(SPEC, config, "multipath-fast"),
        ])
        assert fast.cycles == reference.cycles
        assert fast.counters == reference.counters
        assert fast.rates == reference.rates

    def test_fast_engine_has_distinct_cache_key(self):
        config = baseline_config()
        slow = ExperimentJob(SPEC, config, "cycle")
        fast = ExperimentJob(SPEC, config, "cycle-fast")
        assert slow.cache_key() != fast.cache_key()


class TestCli:
    def test_run_engine_fast_single_path(self, capsys):
        assert cli_main(["run", "--benchmark", "li", "--scale", "0.02",
                         "--engine", "fast"]) == 0
        fast_out = capsys.readouterr().out
        assert cli_main(["run", "--benchmark", "li",
                         "--scale", "0.02"]) == 0
        reference_out = capsys.readouterr().out
        assert fast_out == reference_out

    def test_run_engine_fast_multipath(self, capsys):
        assert cli_main(["run", "--benchmark", "li", "--scale", "0.02",
                         "--paths", "2", "--engine", "fast"]) == 0
        fast_out = capsys.readouterr().out
        assert cli_main(["run", "--benchmark", "li", "--scale", "0.02",
                         "--paths", "2"]) == 0
        assert fast_out == capsys.readouterr().out


class TestDecodeTableMemory:
    """The decode table costs bytes per static instruction, and only the
    most recent program's table stays alive."""

    def test_one_compact_table_alive_after_three_programs(self):
        specs = [WorkloadSpec(name, seed=1, scale=0.01)
                 for name in ("li", "go", "compress")]
        multipath = multipath_machine(2, StackOrganization.PER_PATH)
        SweepExecutor(cache=None).run(
            [ExperimentJob(spec, config, engine)
             for spec in specs
             for config, engine in ((baseline_config(), "cycle-fast"),
                                    (multipath, "multipath-fast"))])
        gc.collect()
        alive = [obj for obj in gc.get_objects()
                 if isinstance(obj, DecodeTable)]
        assert len(alive) <= 1
        table = decode_table(build_program(specs[-1]))
        assert alive in ([], [table])
        for column in (table.exec_fns, table.exec_fns_mp):
            assert len(column) == table.size
            assert len(set(column)) <= len(Opcode)
        for name in ("control", "is_memory", "is_load", "is_store",
                     "is_mul", "is_halt", "latency", "dest", "src1", "src2"):
            column = getattr(table, name)
            assert len(column) == table.size
            assert memoryview(column).itemsize == 1, name


class _RecordingExecutor(SweepExecutor):
    """Runs every job uncached and keeps the jobs it was handed."""

    def __init__(self):
        super().__init__(cache=None)
        self.submitted = []

    def run(self, jobs):
        jobs = list(jobs)
        self.submitted.extend(jobs)
        return super().run(jobs)


_LI = WorkloadSpec("li", seed=1, scale=0.01)


def _sweep_builders():
    """Every table builder that submits jobs, plus the sweep drivers."""
    builders = {
        name: builder
        for name, builder in inspect.getmembers(tables, inspect.isfunction)
        if builder.__module__ == tables.__name__ and not name.startswith("_")
        and "executor" in inspect.signature(builder).parameters
    }
    builders["mechanism_sweep"] = lambda executor, **_: sweep.mechanism_sweep(
        _LI, list(RepairMechanism), executor=executor)
    builders["multipath_sweep"] = lambda executor, **_: sweep.multipath_sweep(
        _LI, (2, 4), executor=executor)
    return builders


@pytest.fixture(scope="module")
def submitted_jobs():
    """Builder name -> the jobs it submitted, run on li at scale 0.01."""
    recorded = {}
    for name, builder in _sweep_builders().items():
        executor = _RecordingExecutor()
        kwargs = {"seed": 1, "scale": 0.01, "executor": executor}
        if "names" in inspect.signature(builder).parameters:
            kwargs["names"] = ("li",)
        builder(**kwargs)
        recorded[name] = executor.submitted
    return recorded


class TestTablesRunOnFastEngines:
    def test_cycle_level_jobs_use_the_fast_engines(self, submitted_jobs):
        assert len(submitted_jobs) >= 15
        for name, jobs in submitted_jobs.items():
            engines = {job.engine for job in jobs}
            assert engines, name
            if name == "ablation_fastsim_crosscheck":
                # A3 compares the cycle model with the front-end model.
                assert engines == {"cycle", "frontend"}
            else:
                assert not engines & {"cycle", "multipath"}, name

    def test_every_table_config_keeps_parity(self, submitted_jobs):
        configs = {"cycle-fast": {}, "multipath-fast": {}}
        for jobs in submitted_jobs.values():
            for job in jobs:
                if job.engine in configs:
                    configs[job.engine][job.config.fingerprint()] = job.config
        assert len(configs["cycle-fast"]) >= 20
        assert len(configs["multipath-fast"]) >= 6
        program = build_program(_LI)
        for config in configs["cycle-fast"].values():
            check_cycle_parity(program, config).ensure()
        for config in configs["multipath-fast"].values():
            check_multipath_parity(program, config).ensure()
