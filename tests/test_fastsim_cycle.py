"""Tests for the columnar cycle engines and their executor wiring.

The deep parity matrix (every repair mechanism and stack size) lives
here; the harness that performs the comparison
is itself tested in ``tests/test_parity_harness.py``.
"""

import pytest

from repro.cli import main as cli_main
from repro.config.defaults import baseline_config
from repro.config.options import RepairMechanism, StackOrganization
from repro.core import ExperimentJob, SweepExecutor
from repro.core.executor import ENGINES
from repro.core.experiment import (
    WorkloadSpec,
    multipath_machine,
    run_cycle,
    run_multipath,
)
from repro.fastsim.cycle import run_cycle_fast
from repro.fastsim.multipath import run_multipath_fast
from repro.fastsim.parity import flatten_group
from repro.workloads.generator import build_workload

SPEC = WorkloadSpec("li", seed=1, scale=0.02)


def _program(name="li", scale=0.02):
    return build_workload(name, seed=1, scale=scale)


class TestCycleParityMatrix:
    @pytest.mark.parametrize("mechanism", list(RepairMechanism))
    @pytest.mark.parametrize("entries", [8, 32])
    def test_every_mechanism_and_stack_size(self, mechanism, entries):
        config = (baseline_config()
                  .with_repair(mechanism)
                  .with_ras_entries(entries))
        program = _program()
        reference, _ = run_cycle(program, config)
        fast, _ = run_cycle_fast(program, config)
        assert flatten_group(reference.group) == flatten_group(fast.group)

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
