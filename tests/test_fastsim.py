"""Unit tests for the fast front-end simulator."""

import dataclasses

import pytest

from repro.config import RepairMechanism, baseline_config
from repro.emu import Emulator
from repro.errors import EmulationError
from repro.fastsim import FastFrontEndSim
from repro.workloads.generator import build_workload
from repro.workloads.kernels import fibonacci_kernel, loop_sum_kernel


def predictor(mechanism=RepairMechanism.TOS_POINTER_AND_CONTENTS, **over):
    config = baseline_config().with_repair(mechanism).predictor
    return dataclasses.replace(config, **over) if over else config


class TestBasics:
    def test_instruction_count_matches_emulator(self):
        program = fibonacci_kernel(10)
        golden = Emulator(program).run()
        result = FastFrontEndSim(program, predictor()).run()
        assert result.instructions == golden.instructions

    def test_loop_kernel_near_perfect(self):
        program = loop_sum_kernel(300)
        result = FastFrontEndSim(program, predictor()).run()
        assert result.cond_accuracy > 0.97

    def test_watchdog(self):
        from repro.isa import ProgramBuilder
        b = ProgramBuilder()
        b.label("main")
        b.j("main")
        sim = FastFrontEndSim(b.build(entry="main"), predictor(),
                              max_instructions=500)
        with pytest.raises(EmulationError):
            sim.run()

    def test_negative_wrong_path_rejected(self):
        with pytest.raises(ValueError):
            FastFrontEndSim(fibonacci_kernel(5), predictor(),
                            wrong_path_instructions=-1)

    def test_estimate_model(self):
        program = fibonacci_kernel(8)
        result = FastFrontEndSim(program, predictor()).run()
        expected = result.instructions * 0.75 + result.mispredictions * 8.0
        assert result.estimated_cycles == pytest.approx(expected)
        assert 0 < result.estimated_ipc < 2


class TestWrongPathCorruption:
    def test_zero_wrong_path_means_no_corruption(self):
        """With no wrong-path walk the stack never corrupts, so even
        the no-repair stack predicts essentially perfectly."""
        program = build_workload("li", seed=1, scale=0.1)
        clean = FastFrontEndSim(
            program, predictor(RepairMechanism.NONE),
            wrong_path_instructions=0).run()
        dirty = FastFrontEndSim(
            program, predictor(RepairMechanism.NONE),
            wrong_path_instructions=24).run()
        assert clean.return_accuracy > 0.99
        assert dirty.return_accuracy < clean.return_accuracy
        assert dirty.counter("wrong_path_fetched") > 0

    def test_wrong_path_calls_and_returns_counted(self):
        program = build_workload("li", seed=1, scale=0.1)
        result = FastFrontEndSim(program, predictor()).run()
        assert result.counter("wrong_path_calls") > 0
        assert result.counter("wrong_path_returns") > 0

    def test_mechanism_ordering(self):
        program = build_workload("li", seed=1, scale=0.2)
        accuracy = {}
        for mechanism in (RepairMechanism.NONE,
                          RepairMechanism.TOS_POINTER,
                          RepairMechanism.TOS_POINTER_AND_CONTENTS,
                          RepairMechanism.FULL_STACK):
            result = FastFrontEndSim(program, predictor(mechanism)).run()
            accuracy[mechanism] = result.return_accuracy
        assert (accuracy[RepairMechanism.NONE]
                < accuracy[RepairMechanism.TOS_POINTER_AND_CONTENTS])
        assert accuracy[RepairMechanism.FULL_STACK] >= 0.999

    def test_longer_wrong_paths_corrupt_more(self):
        program = build_workload("vortex", seed=1, scale=0.1)
        short = FastFrontEndSim(program, predictor(RepairMechanism.NONE),
                                wrong_path_instructions=4).run()
        long = FastFrontEndSim(program, predictor(RepairMechanism.NONE),
                               wrong_path_instructions=48).run()
        assert long.return_accuracy <= short.return_accuracy + 0.01

    def test_btb_only_mode(self):
        program = build_workload("vortex", seed=1, scale=0.1)
        config = dataclasses.replace(predictor(), ras_enabled=False)
        result = FastFrontEndSim(program, config).run()
        assert result.return_accuracy < 0.9

    def test_small_stack_overflows(self):
        program = build_workload("vortex", seed=1, scale=0.1)
        config = dataclasses.replace(predictor(), ras_entries=2)
        result = FastFrontEndSim(program, config).run()
        assert result.counter("ras_overflows") > 0
