"""Unit tests for the ISA: opcodes, instructions, programs, assembler."""

import pickle

import pytest

from repro.errors import AssemblyError, EmulationError
from repro.isa import (
    ControlClass,
    Instruction,
    Opcode,
    Program,
    ProgramBuilder,
    WORD_SIZE,
)
from repro.isa.opcodes import control_class
from repro.workloads import BENCHMARK_NAMES, build_workload


class TestControlClass:
    @pytest.mark.parametrize("opcode,expected", [
        (Opcode.ADD, ControlClass.NOT_CONTROL),
        (Opcode.BEQZ, ControlClass.COND_BRANCH),
        (Opcode.J, ControlClass.JUMP_DIRECT),
        (Opcode.JAL, ControlClass.CALL_DIRECT),
        (Opcode.JR, ControlClass.JUMP_INDIRECT),
        (Opcode.JALR, ControlClass.CALL_INDIRECT),
        (Opcode.RET, ControlClass.RETURN),
    ])
    def test_classification(self, opcode, expected):
        assert control_class(opcode) is expected

    def test_is_call(self):
        assert ControlClass.CALL_DIRECT.is_call
        assert ControlClass.CALL_INDIRECT.is_call
        assert not ControlClass.RETURN.is_call

    def test_is_indirect(self):
        assert ControlClass.RETURN.is_indirect
        assert ControlClass.JUMP_INDIRECT.is_indirect
        assert not ControlClass.JUMP_DIRECT.is_indirect

    def test_is_control(self):
        assert not ControlClass.NOT_CONTROL.is_control
        assert ControlClass.COND_BRANCH.is_control


class TestInstruction:
    def test_register_bounds_checked(self):
        with pytest.raises(AssemblyError):
            Instruction(Opcode.ADD, rd=32)
        with pytest.raises(AssemblyError):
            Instruction(Opcode.ADD, rs=-1)

    def test_precomputed_control(self):
        assert Instruction(Opcode.RET).control is ControlClass.RETURN
        assert Instruction(Opcode.BEQZ, rs=1, target=0).is_cond_branch

    def test_is_memory(self):
        assert Instruction(Opcode.LOAD, rd=1, rs=2).is_memory
        assert Instruction(Opcode.STORE, rt=1, rs=2).is_memory
        assert not Instruction(Opcode.ADD).is_memory

    def test_repr_forms(self):
        assert "r1, r2, r3" in repr(Instruction(Opcode.ADD, rd=1, rs=2, rt=3))
        assert "4(r2)" in repr(Instruction(Opcode.LOAD, rd=1, rs=2, imm=4))

    def test_fields_cannot_be_assigned_or_deleted(self):
        inst = Instruction(Opcode.ADDI, rd=1, rs=2, imm=3)
        with pytest.raises(AttributeError):
            inst.imm = 4
        with pytest.raises(AttributeError):
            del inst.rd
        assert (inst.rd, inst.imm) == (1, 3)


class TestProgram:
    def _simple(self):
        b = ProgramBuilder("p")
        b.label("main")
        b.nop()
        b.halt()
        return b.build(entry="main")

    def test_fetch_by_address(self):
        p = self._simple()
        assert p.fetch(0).opcode is Opcode.NOP
        assert p.fetch(WORD_SIZE).opcode is Opcode.HALT

    def test_fetch_out_of_range(self):
        p = self._simple()
        with pytest.raises(EmulationError):
            p.fetch(100)
        with pytest.raises(EmulationError):
            p.fetch(-4)

    def test_fetch_misaligned(self):
        p = self._simple()
        with pytest.raises(EmulationError):
            p.fetch(2)

    def test_in_text(self):
        p = self._simple()
        assert p.in_text(0)
        assert not p.in_text(p.text_limit)
        assert not p.in_text(1)

    def test_empty_program_rejected(self):
        with pytest.raises(AssemblyError):
            Program([])

    def test_bad_target_rejected(self):
        inst = Instruction(Opcode.J, target=400)
        with pytest.raises(AssemblyError):
            Program([inst, Instruction(Opcode.HALT)])

    def test_bad_entry_rejected(self):
        with pytest.raises(AssemblyError):
            Program([Instruction(Opcode.HALT)], entry=8)

    def test_static_counts(self):
        p = self._simple()
        counts = p.static_counts()
        assert counts == {"nop": 1, "halt": 1}

    def test_disassemble_mentions_labels(self):
        p = self._simple()
        text = p.disassemble()
        assert "main:" in text
        assert "halt" in text


class TestProgramBuilder:
    def test_duplicate_label_rejected(self):
        b = ProgramBuilder()
        b.label("x")
        with pytest.raises(AssemblyError):
            b.label("x")

    def test_undefined_label_rejected(self):
        b = ProgramBuilder()
        b.j("nowhere")
        with pytest.raises(AssemblyError):
            b.build()

    def test_forward_reference_resolves(self):
        b = ProgramBuilder()
        b.j("later")
        b.nop()
        b.label("later")
        b.halt()
        p = b.build()
        assert p.fetch(0).target == 2 * WORD_SIZE

    def test_here_advances_by_word(self):
        b = ProgramBuilder()
        assert b.here == 0
        b.nop()
        assert b.here == WORD_SIZE

    def test_data_label_resolution(self):
        b = ProgramBuilder()
        b.label("main")
        b.halt()
        b.label("f")
        b.ret()
        b.put_data(0x1000, "f")
        b.put_data(0x1004, 42)
        p = b.build(entry="main")
        assert p.data[0x1000] == p.address_of("f")
        assert p.data[0x1004] == 42

    def test_numeric_targets_allowed(self):
        b = ProgramBuilder()
        b.beqz(1, 2 * WORD_SIZE)
        b.nop()
        b.halt()
        p = b.build()
        assert p.fetch(0).target == 2 * WORD_SIZE

    def test_empty_build_rejected(self):
        with pytest.raises(AssemblyError):
            ProgramBuilder().build()

    def test_address_of_unknown_label(self):
        b = ProgramBuilder()
        b.halt()
        p = b.build()
        with pytest.raises(AssemblyError):
            p.address_of("ghost")


def _fields(inst):
    return (inst.opcode, inst.rd, inst.rs, inst.rt, inst.imm, inst.target,
            inst.control)


class TestRecordSharing:
    """``ProgramBuilder.build`` gives equal positions one record.

    Structural checks only: what sharing saves in bytes depends on the
    Python version, so no memory figure is asserted here.
    """

    def test_equal_instructions_are_one_record(self):
        b = ProgramBuilder()
        b.label("top")
        b.addi(1, 1, 1)
        b.addi(1, 1, 1)
        b.bnez(1, "top")
        b.bnez(1, 0)
        b.halt()
        text = b.build().text
        assert text[0] is text[1]
        # A label and the address it names resolve to the same target.
        assert text[2] is text[3]

    def test_unequal_instructions_are_separate_records(self):
        b = ProgramBuilder()
        b.addi(1, 1, 1)
        b.addi(1, 1, 2)
        b.addi(2, 1, 1)
        b.xori(1, 1, 1)
        b.halt()
        text = b.build().text
        assert len({id(inst) for inst in text}) == len(text)

    def test_equal_values_of_different_type_are_separate_records(self):
        b = ProgramBuilder()
        for imm in (1, 1.0, True, 1, 1.0, True):
            b.li(1, imm)
        b.halt()
        text = b.build().text
        assert len({id(inst) for inst in text[:6]}) == 3
        for first, second in zip(text[:3], text[3:6]):
            assert first is second
            assert type(first.imm) is type(second.imm)
        assert [type(inst.imm) for inst in text[:3]] == [int, float, bool]

    def test_generated_programs_read_what_the_builder_resolved(
            self, monkeypatch):
        built = []
        build = ProgramBuilder.build

        def recording_build(builder, entry=0):
            program = build(builder, entry)
            built.append((builder, program))
            return program

        monkeypatch.setattr(ProgramBuilder, "build", recording_build)
        for name in BENCHMARK_NAMES:
            build_workload(name, seed=1, scale=0.02)
        assert len(built) == len(BENCHMARK_NAMES) == 8
        for builder, program in built:
            resolved = [
                (opcode, rd, rs, rt, imm,
                 None if target is None else builder._resolve(target),
                 control_class(opcode))
                for opcode, rd, rs, rt, imm, target in builder._text]
            assert [_fields(inst) for inst in program.text] == resolved
            records = {id(inst) for inst in program.text}
            distinct = {(fields, tuple(map(type, fields)))
                        for fields in resolved}
            assert len(records) == len(distinct) < len(program.text) / 2

    def test_pickle_round_trip_keeps_fields_and_sharing(self):
        program = build_workload("li", seed=1, scale=0.02)
        copy = pickle.loads(pickle.dumps(program))
        assert ([_fields(inst) for inst in copy.text]
                == [_fields(inst) for inst in program.text])
        assert (len({id(inst) for inst in copy.text})
                == len({id(inst) for inst in program.text}))
        assert (copy.entry, copy.data, copy.labels, copy.name) == (
            program.entry, program.data, program.labels, program.name)
