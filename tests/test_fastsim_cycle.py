"""Tests for the columnar cycle engines and their executor wiring.

The deep parity matrix (every repair mechanism and stack size) lives
here, together with the checks that the paper's tables run on these
engines and that every machine those tables configure keeps parity;
the harness that performs the comparison is itself tested in
``tests/test_parity_harness.py``.
"""

import dataclasses
import functools
import gc
import hashlib
import inspect
import json

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
    run_frontend,
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


@functools.lru_cache(maxsize=None)
def _multipath_cell(organization):
    """Flat counters of ``(reference, fast)`` for one stack organisation
    at 2 paths, shared by the parity and golden tests below."""
    config = multipath_machine(2, organization)
    program = _program()
    reference, _ = run_multipath(program, config)
    fast, _ = run_multipath_fast(program, config)
    return flatten_group(reference.group), flatten_group(fast.group)


def _with_core(**fields):
    """The Table 1 machine with some core fields replaced."""
    config = baseline_config()
    return dataclasses.replace(
        config, core=dataclasses.replace(config.core, **fields))


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


class TestStructuralPressureParity:
    """The Table 1 core rarely makes woken and already-ready entries
    compete for an issue slot or a functional unit; these cores do, so
    the order in which issue picks among them has to match the
    reference's program-order walk."""

    @pytest.mark.parametrize("name", ["li", "go"])
    @pytest.mark.parametrize("core", [
        pytest.param({"issue_width": 1}, id="issue-1"),
        pytest.param({"int_alus": 1, "int_multipliers": 1,
                      "memory_ports": 1}, id="one-unit-each"),
        pytest.param({"fetch_width": 2, "decode_width": 2,
                      "issue_width": 2, "commit_width": 2}, id="two-wide"),
    ])
    def test_reference_and_fast_agree(self, core, name):
        check_cycle_parity(_program(name), _with_core(**core)).ensure()


class TestMultipathParity:
    @pytest.mark.parametrize("organization", list(StackOrganization))
    def test_every_stack_organization(self, organization):
        reference, fast = _multipath_cell(organization)
        assert reference == fast

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


def _digest(flat):
    return hashlib.sha256(json.dumps(flat, sort_keys=True).encode()).hexdigest()


#: SHA-256 of each cell's flat counters (``json.dumps(flat,
#: sort_keys=True)``), on li at seed 1, scale 0.02 unless the key names
#: another benchmark. Parity compares engines that share the predictor,
#: cache and RAS layers, so a slip in one of those passes parity and
#: changes every table; these digests do not move unless a counter does.
#: A deliberate change of simulated behaviour updates them, and says so.
_GOLDEN = {
    "cycle-fast/none/8":
        "62e6501881bd4aa0beb30bf85568322e55ad2d378828f2a7fd8cdf72349a6a79",
    "cycle-fast/none/32":
        "1cfddc8f53d41b62089dd3cb0d3ada25e3de1bc1c329901d337489635c9c76fe",
    "cycle-fast/tos-pointer/8":
        "adcffb8abe717ad4260af779405e4452248aaf4b91602ea6a72f914fc3840665",
    "cycle-fast/tos-pointer/32":
        "60dda0f7ae4cfa9ac0964e96638267001d89a9aa172b0f68a03a1406d3b55ba5",
    "cycle-fast/tos-pointer-contents/8":
        "7791cd7b7f9296ecab0f27de4e76cd4000253f067b13454c862432926eed7900",
    "cycle-fast/tos-pointer-contents/32":
        "3009a9233e1a652a47c63e8b7cf0cf76a5297321fb414d0f613246bbc073c899",
    "cycle-fast/full-stack/8":
        "886f1288459b4649226280b867e5300ae687b60ffd4b892bf224b966d10bb735",
    "cycle-fast/full-stack/32":
        "b90592d961d6f9c42b84351bd9feeead9b41af24161e700a6b568cf8e0263800",
    "cycle-fast/valid-bits/8":
        "efeff4e61f0c009a467d8c06dab4f13f244b6ab1d70675d9d510a271f9b35d12",
    "cycle-fast/valid-bits/32":
        "6232dc88f04356777e487223d3f10536d0a2841df5c5c5fb795050c5a51bff8a",
    "cycle-fast/self-checkpoint/8":
        "95f8c84985ae9ce2c49012064bfc53e4498d02c1c3599dc30f9ece1368dbeab1",
    "cycle-fast/self-checkpoint/32":
        "b90592d961d6f9c42b84351bd9feeead9b41af24161e700a6b568cf8e0263800",
    "cycle-fast/champsim/8":
        "30ced724df6d0d8fe24ba7832465418f12ed0c1d31b8b4c10d5cea77711c93d8",
    "cycle-fast/champsim/32":
        "7aa3adb4b8e8e949be4d25ba88398238aebbb8664b04fdd0306674552bcea2e3",
    "multipath-fast/per-path/2":
        "997ec3b38181a1b44171f497f3b37e9d63f42973b1ca5e804a5f91223fde7e1f",
    "multipath-fast/unified/2":
        "a3ad7429c6c25bc5131b6ac3cf6621be32e3b083dfcf90db67a97217c638c32b",
    "multipath-fast/unified-checkpoint/2":
        "ae2c34c2ccebf441cb39b03710c1aa15638472500a4c7e78e8193e6179310569",
    "frontend":
        "3191dc70195c3cd32dc70910b68043053517e21720114f77fa1d591481a86792",
    "cycle-fast/go/hybrid":
        "eea6051031fcfe1bf2ef21371b1de2c7238eb7fda6f33371f30550c39a5b3c8b",
    "cycle-fast/go/gshare":
        "0cae966d763fca7c0393732c3f22fe505eddb4afc27942ab89976892fb5b5365",
    "cycle-fast/go/bimodal":
        "adcbf5cf999971c7399fab0bd43c8d2011187882b4cef8811bbfaecc3ae75133",
    "cycle-fast/go/gag":
        "eea6051031fcfe1bf2ef21371b1de2c7238eb7fda6f33371f30550c39a5b3c8b",
    "cycle-fast/go/pag":
        "3bb18b7bbcd63af2d5e58aeb606db71a1ae886ccaf5969166da53cc570814b07",
    "cycle-fast/ijpeg/hybrid":
        "752d5a4b40011ded1a7d67be6552c2d5cf68c3131c568cc499f39dd36625f97b",
    "cycle-fast/ijpeg/gshare":
        "d11562c6354fa69076f7d2828396dd847d76a1e28f55003f4007ad6a8810d65e",
    "cycle-fast/ijpeg/bimodal":
        "80e9ce2c627effa9ebd520fb8f0959b1b45cb70476505724bc3e705cc3ce91e2",
    "cycle-fast/ijpeg/gag":
        "b97b99b7a8fd150ef70bd405cedc95325f9f75863c77ff4472a66c757737ccaa",
    "cycle-fast/ijpeg/pag":
        "2a0ae1e46b6d56500199d3e93f59fa3d809a0a1714e67af62c8a850d671c718f",
}


class TestGoldenCounters:
    @pytest.mark.parametrize("mechanism", list(RepairMechanism))
    @pytest.mark.parametrize("entries", [8, 32])
    def test_matrix_cell(self, mechanism, entries):
        _, fast = _matrix_cell(mechanism, entries)
        key = f"cycle-fast/{mechanism.value}/{entries}"
        assert _digest(fast) == _GOLDEN[key]

    @pytest.mark.parametrize("organization", list(StackOrganization))
    def test_stack_organization_at_two_paths(self, organization):
        _, fast = _multipath_cell(organization)
        key = f"multipath-fast/{organization.value}/2"
        assert _digest(fast) == _GOLDEN[key]

    def test_frontend_job(self):
        result = run_frontend(_program(), baseline_config())
        assert _digest(flatten_group(result.group)) == _GOLDEN["frontend"]

    @pytest.mark.parametrize(
        "kind", ["hybrid", "gshare", "bimodal", "gag", "pag"])
    @pytest.mark.parametrize("name", ["go", "ijpeg"])
    def test_direction_kind(self, name, kind):
        """Each direction predictor on go and ijpeg, not li: li at this
        scale commits 110 conditional branches, on which the hybrid,
        gshare and GAg give the same counters. go's counters moved under
        each of six one-line slips tried in a kind's table index,
        history width or selector training (li's under three); on
        ijpeg the five kinds give five different digests."""
        config = baseline_config()
        config = dataclasses.replace(config, predictor=dataclasses.replace(
            config.predictor, direction_kind=kind))
        result, _ = run_cycle_fast(_program(name), config)
        assert _digest(flatten_group(result.group)) == _GOLDEN[
            f"cycle-fast/{name}/{kind}"]


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
