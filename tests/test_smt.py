"""The front-end model with several hardware threads (ablation A9)."""

import pytest

from repro.config import baseline_config
from repro.emu import Emulator
from repro.errors import ConfigError, EmulationError
from repro.fastsim import FastFrontEndSim
from repro.workloads import build_workload
from repro.workloads.kernels import fibonacci_kernel, loop_sum_kernel


def predictor():
    return baseline_config().predictor


class TestBasics:
    def test_single_thread_matches_emulator_count(self):
        program = fibonacci_kernel(9)
        golden = Emulator(program).run()
        result = FastFrontEndSim([program], predictor()).run()
        assert result.instructions == golden.instructions
        assert result.threads[0].returns == golden.returns

    def test_threads_functionally_isolated(self):
        """Two threads of the same program must both produce the full
        instruction count — no architectural interference."""
        program = fibonacci_kernel(9)
        golden = Emulator(program).run()
        result = FastFrontEndSim([program] * 2, predictor()).run()
        for thread in result.threads:
            assert thread.instructions == golden.instructions

    def test_different_programs_per_thread(self):
        a = loop_sum_kernel(50)
        b = fibonacci_kernel(7)
        result = FastFrontEndSim([a, b], predictor()).run()
        assert result.threads[0].instructions == Emulator(a).run().instructions
        assert result.threads[1].instructions == Emulator(b).run().instructions

    def test_validation(self):
        with pytest.raises(ConfigError):
            FastFrontEndSim([], predictor())

    def test_watchdog(self):
        from repro.isa import ProgramBuilder
        b = ProgramBuilder()
        b.label("main")
        b.j("main")
        sim = FastFrontEndSim([b.build(entry="main")], predictor(),
                              max_instructions=200)
        with pytest.raises(EmulationError):
            sim.run()

    def test_no_shadow_slot_leak(self):
        program = build_workload("go", seed=1, scale=0.05)
        sim = FastFrontEndSim([program] * 2, predictor(),
                              per_thread_stacks=False)
        sim.run()
        assert sim.frontend.shadow_pool.in_use == 0


class TestHilySeznecClaim:
    """Per-thread stacks are a necessity (the paper's related work)."""

    @pytest.fixture(scope="class")
    def programs(self):
        return [build_workload("li", seed=seed, scale=0.1)
                for seed in (1, 2)]

    def test_per_thread_stacks_stay_accurate(self, programs):
        result = FastFrontEndSim(
            programs, predictor(), per_thread_stacks=True).run()
        assert result.return_accuracy > 0.95

    def test_shared_stack_collapses(self, programs):
        result = FastFrontEndSim(
            programs, predictor(), per_thread_stacks=False).run()
        assert result.return_accuracy < 0.75

    def test_every_thread_suffers_under_sharing(self, programs):
        result = FastFrontEndSim(
            programs, predictor(), per_thread_stacks=False).run()
        for thread in result.threads:
            assert thread.return_accuracy < 0.85

    def test_contention_grows_with_thread_count(self):
        accuracies = {}
        for count in (2, 4):
            programs = [build_workload("li", seed=seed, scale=0.05)
                        for seed in range(1, count + 1)]
            result = FastFrontEndSim(
                programs, predictor(), per_thread_stacks=False).run()
            accuracies[count] = result.return_accuracy
        assert accuracies[4] < accuracies[2]

    def test_homogeneous_lockstep_masks_contention(self):
        """Identical threads in phase push identical return addresses,
        partially hiding the contention — worth knowing when designing
        SMT experiments."""
        program = build_workload("li", seed=1, scale=0.1)
        homogeneous = FastFrontEndSim(
            [program] * 2, predictor(), per_thread_stacks=False).run()
        heterogeneous = FastFrontEndSim(
            [program, build_workload("li", seed=2, scale=0.1)],
            predictor(), per_thread_stacks=False).run()
        assert homogeneous.return_accuracy > heterogeneous.return_accuracy
