"""Integration tests for the multipath CPU.

Same golden-stream discipline as the single-path tests, across path
counts and stack organisations, plus the paper's Section 5 claims:
unified stacks collapse under contention, full checkpointing does not
save them, per-path stacks do.
"""

import dataclasses

import pytest

from repro.config import StackOrganization, baseline_config
from repro.emu import Emulator
from repro.multipath import MultipathCPU, PathContext, StackOrganizer
from repro.workloads.generator import build_workload
from repro.workloads.kernels import dispatch_kernel, fibonacci_kernel


def multipath_config(paths, org, scale_frontend=False):
    config = baseline_config().with_multipath(paths, org)
    if scale_frontend:
        factor = max(1, paths // 2)
        config = dataclasses.replace(
            config,
            core=dataclasses.replace(
                config.core,
                fetch_width=4 * factor,
                decode_width=4 * factor,
                ifq_size=16 * factor,
            ),
        )
    return config


def committed_stream(program, config):
    committed = []

    def hook(entry):
        next_pc = entry.pc if entry.outcome.is_halt else entry.outcome.next_pc
        committed.append((entry.pc, next_pc))

    cpu = MultipathCPU(program, config, commit_hook=hook)
    result = cpu.run()
    return committed, result, cpu


def golden_stream(program):
    return [(r.pc, r.next_pc) for r in Emulator(program).trace()]


class TestGoldenEquivalence:
    @pytest.mark.parametrize("paths", [2, 4])
    @pytest.mark.parametrize("org", list(StackOrganization))
    def test_go_matches_golden(self, paths, org):
        program = build_workload("go", seed=1, scale=0.08)
        committed, _, _ = committed_stream(
            program, multipath_config(paths, org))
        assert committed == golden_stream(program)

    @pytest.mark.parametrize("name", ["li", "vortex"])
    def test_call_dense_workloads_match_golden(self, name):
        program = build_workload(name, seed=2, scale=0.08)
        committed, _, _ = committed_stream(
            program, multipath_config(4, StackOrganization.PER_PATH))
        assert committed == golden_stream(program)

    def test_kernels_match_golden(self):
        for program in (fibonacci_kernel(9), dispatch_kernel(120, 8)):
            committed, _, _ = committed_stream(
                program, multipath_config(4, StackOrganization.PER_PATH))
            assert committed == golden_stream(program)

    def test_final_registers_match_emulator(self):
        program = fibonacci_kernel(10)
        emulator = Emulator(program)
        emulator.run()
        _, _, cpu = committed_stream(
            program, multipath_config(2, StackOrganization.PER_PATH))
        assert cpu.final_regs == emulator.state.regs

    def test_architectural_memory_matches_emulator(self):
        program = build_workload("m88ksim", seed=1, scale=0.05)
        emulator = Emulator(program)
        emulator.run()
        _, _, cpu = committed_stream(
            program, multipath_config(2, StackOrganization.PER_PATH))
        for address, value in emulator.state.memory.items():
            assert cpu._arch_memory.get(address, 0) == value

    def test_single_context_degenerates_gracefully(self):
        """max_paths=1 never forks: still correct, just single-path."""
        program = fibonacci_kernel(9)
        committed, result, _ = committed_stream(
            program, multipath_config(1, StackOrganization.PER_PATH))
        assert committed == golden_stream(program)
        assert result.counter("forks") == 0


class TestSection5Claims:
    @pytest.fixture(scope="class")
    def results(self):
        program = build_workload("li", seed=1, scale=0.15)
        out = {}
        for org in StackOrganization:
            config = multipath_config(4, org, scale_frontend=True)
            _, result, _ = committed_stream(program, config)
            out[org] = result
        return out

    def test_forks_actually_happen(self, results):
        for result in results.values():
            assert result.counter("forks") > 10
            assert result.counter("fork_saved_mispredictions") > 0

    def test_unified_stack_collapses(self, results):
        assert results[StackOrganization.UNIFIED].return_accuracy < 0.7

    def test_full_checkpointing_does_not_fix_contention(self, results):
        """The paper: corruption is almost certain even with full-stack
        checkpointing, because contention is not a wrong-path problem."""
        checkpointed = results[StackOrganization.UNIFIED_CHECKPOINT]
        assert checkpointed.return_accuracy < 0.7

    def test_per_path_stacks_eliminate_contention(self, results):
        assert results[StackOrganization.PER_PATH].return_accuracy > 0.9

    def test_per_path_wins_on_ipc(self, results):
        per_path = results[StackOrganization.PER_PATH].ipc
        unified = results[StackOrganization.UNIFIED].ipc
        assert per_path > unified * 1.05

    def test_bubbles_are_retired(self, results):
        """Squashed entries drain through the RUU head (footnote 3)."""
        for result in results.values():
            assert result.counter("bubbles_retired") > 0


class TestPathContext:
    def test_ancestry_horizons(self):
        root = PathContext(0, 0, [0] * 32)
        child = PathContext(1, 100, None, parent=root)
        child.origin_seq = 50
        grandchild = PathContext(2, 200, None, parent=child)
        grandchild.origin_seq = 80
        # Each ancestor's horizon is the smallest fork seq below it.
        assert grandchild.can_see(grandchild, 10 ** 9)
        assert grandchild.can_see(child, 79)
        assert not grandchild.can_see(child, 80)
        assert grandchild.can_see(root, 49)
        assert not grandchild.can_see(root, 50)
        grandchild.origin_seq = 30
        assert not grandchild.can_see(root, 49)
        assert grandchild.can_see(root, 29)

    def test_can_see_respects_horizons(self):
        root = PathContext(0, 0, [0] * 32)
        child = PathContext(1, 100, None, parent=root)
        child.origin_seq = 50
        assert child.can_see(root, 49)
        assert not child.can_see(root, 50)
        assert child.can_see(child, 10 ** 9)

    def test_sibling_invisible(self):
        root = PathContext(0, 0, [0] * 32)
        a = PathContext(1, 0, None, parent=root)
        a.origin_seq = 10
        b = PathContext(2, 0, None, parent=root)
        b.origin_seq = 20
        assert not a.can_see(b, 15)
        assert not b.can_see(a, 15)

    def test_descendant_relation(self):
        root = PathContext(0, 0, [0] * 32)
        child = PathContext(1, 0, None, parent=root)
        assert child.is_descendant_of(root)
        assert child.is_descendant_of(child)
        assert not root.is_descendant_of(child)


class TestStackOrganizer:
    def _config(self):
        return baseline_config().predictor

    def test_unified_shares_one_stack(self):
        org = StackOrganizer(StackOrganization.UNIFIED, self._config())
        root = PathContext(0, 0, [0] * 32, ras=org.root_stack())
        assert org.root_stack() is org.stack_for_fork(root)

    def test_per_path_clones(self):
        org = StackOrganizer(StackOrganization.PER_PATH, self._config())
        stack = org.root_stack()
        stack.push(42)
        root = PathContext(0, 0, [0] * 32, ras=stack)
        child_stack = org.stack_for_fork(root)
        assert child_stack is not stack
        assert child_stack.top() == 42
        child_stack.push(7)
        assert stack.top() == 42

    def test_checkpoint_org_uses_full_stack(self):
        from repro.config import RepairMechanism
        org = StackOrganizer(StackOrganization.UNIFIED_CHECKPOINT, self._config())
        assert org.root_stack().repair is RepairMechanism.FULL_STACK

    def test_disabled_ras(self):
        config = dataclasses.replace(self._config(), ras_enabled=False)
        org = StackOrganizer(StackOrganization.PER_PATH, config)
        assert org.root_stack() is None

    def test_never_repairs_on_fork_resolution(self):
        for organization in StackOrganization:
            org = StackOrganizer(organization, self._config())
            assert not org.repair_on_fork_resolution()
