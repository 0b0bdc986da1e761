"""Unit tests for the functional emulator and machine state."""

import pytest

from repro.emu import Emulator, MachineState, execute
from repro.emu.machine_state import MASK64, to_signed, to_unsigned
from repro.errors import EmulationError
from repro.isa import Instruction, Opcode, ProgramBuilder, REG_RA
from repro.workloads.kernels import (
    fibonacci_kernel,
    loop_sum_kernel,
    mutual_recursion_kernel,
)


def _never_halts():
    b = ProgramBuilder()
    b.label("main")
    b.j("main")
    return b.build(entry="main")


def _frontend(threads):
    def run(program, cap):
        from repro.fastsim import FastFrontEndSim
        FastFrontEndSim([program] * threads, max_instructions=cap).run()
    return run


def _corruption(program, cap):
    from repro.analysis import CorruptionAnalyzer
    CorruptionAnalyzer(program, max_instructions=cap).run()


def _return_predictors(program, cap):
    from repro.analysis import compare_return_predictors
    compare_return_predictors(program, max_instructions=cap)


def _recording(program, cap):
    from repro.trace.format import iter_control_events
    for _ in iter_control_events(program, max_instructions=cap):
        pass


def run_program(builder, entry="main", **kwargs):
    emulator = Emulator(builder.build(entry=entry), **kwargs)
    stats = emulator.run()
    return emulator.state, stats


class TestArithmetic:
    def test_add_sub(self):
        b = ProgramBuilder()
        b.label("main")
        b.li(1, 10)
        b.li(2, 3)
        b.add(3, 1, 2)
        b.sub(4, 1, 2)
        b.halt()
        state, _ = run_program(b)
        assert state.regs[3] == 13
        assert state.regs[4] == 7

    def test_64bit_wraparound(self):
        b = ProgramBuilder()
        b.label("main")
        b.li(1, (1 << 64) - 1)
        b.addi(1, 1, 1)
        b.halt()
        state, _ = run_program(b)
        assert state.regs[1] == 0

    def test_negative_representation(self):
        b = ProgramBuilder()
        b.label("main")
        b.li(1, 0)
        b.addi(1, 1, -5)
        b.halt()
        state, _ = run_program(b)
        assert to_signed(state.regs[1]) == -5

    def test_slt_signed(self):
        b = ProgramBuilder()
        b.label("main")
        b.li(1, 0)
        b.addi(1, 1, -1)   # -1
        b.li(2, 1)
        b.slt(3, 1, 2)     # -1 < 1
        b.slt(4, 2, 1)     # 1 < -1
        b.halt()
        state, _ = run_program(b)
        assert state.regs[3] == 1
        assert state.regs[4] == 0

    def test_shifts(self):
        b = ProgramBuilder()
        b.label("main")
        b.li(1, 1)
        b.slli(2, 1, 10)
        b.srli(3, 2, 4)
        b.halt()
        state, _ = run_program(b)
        assert state.regs[2] == 1024
        assert state.regs[3] == 64

    def test_mul_masks_to_64(self):
        b = ProgramBuilder()
        b.label("main")
        b.li(1, 1 << 63)
        b.li(2, 2)
        b.mul(3, 1, 2)
        b.halt()
        state, _ = run_program(b)
        assert state.regs[3] == 0

    def test_r0_stays_zero(self):
        b = ProgramBuilder()
        b.label("main")
        b.li(0, 99)
        b.add(0, 0, 0)
        b.halt()
        state, _ = run_program(b)
        assert state.regs[0] == 0


class TestMemory:
    def test_store_load_roundtrip(self):
        b = ProgramBuilder()
        b.label("main")
        b.li(1, 0x1000)
        b.li(2, 77)
        b.store(2, 1, 4)
        b.load(3, 1, 4)
        b.halt()
        state, _ = run_program(b)
        assert state.regs[3] == 77

    def test_uninitialised_reads_zero(self):
        b = ProgramBuilder()
        b.label("main")
        b.li(1, 0x5000)
        b.load(2, 1, 0)
        b.halt()
        state, _ = run_program(b)
        assert state.regs[2] == 0

    def test_initial_data_visible(self):
        b = ProgramBuilder()
        b.label("main")
        b.li(1, 0x2000)
        b.load(2, 1, 0)
        b.halt()
        b.put_data(0x2000, 123)
        state, _ = run_program(b)
        assert state.regs[2] == 123


class TestControlFlow:
    def test_branch_taken_and_not(self):
        b = ProgramBuilder()
        b.label("main")
        b.li(1, 0)
        b.beqz(1, "skip")       # taken
        b.li(2, 1)              # skipped
        b.label("skip")
        b.li(3, 5)
        b.bnez(3, "skip2")      # taken
        b.li(4, 1)              # skipped
        b.label("skip2")
        b.halt()
        state, stats = run_program(b)
        assert state.regs[2] == 0
        assert state.regs[4] == 0
        assert stats.taken_cond_branches == 2

    def test_call_writes_link_register(self):
        b = ProgramBuilder()
        b.label("main")
        pc = b.jal("f")
        b.halt()
        b.label("f")
        b.add(1, 31, 0)
        b.ret()
        state, stats = run_program(b)
        assert state.regs[1] == pc + 4
        assert stats.calls == 1
        assert stats.returns == 1

    def test_jalr_and_jr(self):
        b = ProgramBuilder()
        b.label("main")
        b.li(1, 0)
        b.addi(1, 1, 5 * 4)     # address of label "f"
        b.jalr(1)
        b.halt()
        b.nop()                 # filler so "f" is at instruction 5
        b.label("f")
        b.li(2, 9)
        b.ret()
        state, stats = run_program(b)
        assert state.regs[2] == 9
        assert stats.calls == 1

    def test_jump_out_of_text_is_error(self):
        b = ProgramBuilder()
        b.label("main")
        b.li(1, 0x9999000)
        b.jr(1)
        b.halt()
        emulator = Emulator(b.build(entry="main"))
        with pytest.raises(EmulationError):
            emulator.run()

    def test_watchdog_triggers(self):
        b = ProgramBuilder()
        b.label("main")
        b.j("main")
        emulator = Emulator(b.build(entry="main"), max_instructions=100)
        with pytest.raises(EmulationError):
            emulator.run()


class TestKernels:
    def test_loop_sum(self):
        p = loop_sum_kernel(10)
        e = Emulator(p)
        e.run()
        assert e.state.regs[1] == 55

    def test_fibonacci(self):
        p = fibonacci_kernel(10)
        e = Emulator(p)
        stats = e.run()
        assert e.state.regs[2] == 89      # fib(10) with fib(0)=fib(1)=1
        assert stats.calls == stats.returns

    def test_mutual_recursion_call_count(self):
        p = mutual_recursion_kernel(12)
        e = Emulator(p)
        stats = e.run()
        assert e.state.regs[1] == 13      # depth+1 function activations
        assert stats.calls == 13
        assert stats.call_depth.max_key == 13

    def test_trace_matches_run_length(self):
        p = fibonacci_kernel(8)
        count = sum(1 for _ in Emulator(p).trace())
        stats = Emulator(p).run()
        assert count == stats.instructions


class TestControlTransfers:
    """The emulator's control stream is every model's committed path."""

    def test_stream_is_the_traces_control_subset(self):
        program = fibonacci_kernel(8)
        golden = [(r.pc, r.next_pc, r.taken)
                  for r in Emulator(program).trace()]
        emulator = Emulator(program)
        stream = list(emulator.control_transfers())
        assert [(pc, next_pc, taken) for pc, _, next_pc, taken, _ in stream] \
            == [golden[index] for _, _, _, _, index in stream]
        assert all(inst.is_control for _, inst, _, _, _ in stream)
        assert emulator.instructions == len(golden)
        assert emulator.state.halted

    @pytest.mark.parametrize("consumer", [
        _frontend(1), _frontend(2), _corruption, _return_predictors,
        _recording,
    ], ids=["frontend-1-thread", "frontend-2-threads", "corruption",
            "return-predictors", "recording"])
    def test_watchdog_stops_every_consumer(self, consumer):
        with pytest.raises(EmulationError):
            consumer(_never_halts(), 200)


class TestStateHelpers:
    def test_to_signed_unsigned_roundtrip(self):
        assert to_signed(to_unsigned(-1)) == -1
        assert to_unsigned(-1) == MASK64

    def test_undo_log_rewinds_registers(self):
        state = MachineState()
        log = []
        state.write_reg(5, 42, log)
        state.write_reg(5, 99, log)
        state.write_mem(0x100, 7, log)
        state.rewind(log)
        assert state.regs[5] == 0
        assert state.read_mem(0x100) == 0
        assert log == []

    def test_undo_log_restores_previous_memory(self):
        state = MachineState(initial_memory={0x100: 1})
        log = []
        state.write_mem(0x100, 2, log)
        state.rewind(log)
        assert state.read_mem(0x100) == 1

    def test_fork_sees_parent_memory(self):
        parent = MachineState()
        parent.write_mem(8, 3)
        child = parent.fork()
        assert child.read_mem(8) == 3

    def test_fork_writes_stay_private(self):
        parent = MachineState()
        parent.write_mem(8, 3)
        child = parent.fork()
        child.write_mem(8, 9)
        assert parent.read_mem(8) == 3
        assert child.read_mem(8) == 9

    def test_collapse_merges_child(self):
        parent = MachineState()
        parent.write_mem(8, 3)
        child = parent.fork()
        child.write_reg(1, 11)
        child.write_mem(8, 9)
        child.pc = 64
        merged = child.collapse_into_parent()
        assert merged is parent
        assert parent.read_mem(8) == 9
        assert parent.regs[1] == 11
        assert parent.pc == 64

    def test_collapse_root_rejected(self):
        with pytest.raises(ValueError):
            MachineState().collapse_into_parent()

    def test_depth(self):
        root = MachineState()
        assert root.depth() == 0
        assert root.fork().fork().depth() == 2

    def test_execute_does_not_move_pc(self):
        state = MachineState(pc=0)
        outcome = execute(Instruction(Opcode.LI, rd=1, imm=3), 0, state)
        assert state.pc == 0
        assert outcome.next_pc == 4
