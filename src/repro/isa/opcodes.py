"""Opcode and control-class definitions."""

from __future__ import annotations

import enum

#: Number of architectural integer registers.
NUM_REGS = 32
#: r0 always reads as zero; writes to it are discarded.
REG_ZERO = 0
#: Stack-pointer register by software convention.
REG_SP = 29
#: Link register written by calls and read by returns.
REG_RA = 31
#: Bytes per instruction / memory word; PCs advance in WORD_SIZE steps.
WORD_SIZE = 4


class ControlClass(enum.Enum):
    """How the front end classifies an instruction for prediction.

    These are exactly the categories the paper's predictor distinguishes:
    conditional branches consult the direction predictor; taken direct
    jumps/calls hit the BTB (or compute their target in decode); indirect
    jumps/calls rely entirely on the BTB; returns consult the
    return-address stack.
    """

    NOT_CONTROL = "not-control"
    COND_BRANCH = "cond-branch"
    JUMP_DIRECT = "jump-direct"
    CALL_DIRECT = "call-direct"
    JUMP_INDIRECT = "jump-indirect"
    CALL_INDIRECT = "call-indirect"
    RETURN = "return"

    @property
    def is_control(self) -> bool:
        return self is not ControlClass.NOT_CONTROL

    @property
    def is_call(self) -> bool:
        return self in (ControlClass.CALL_DIRECT, ControlClass.CALL_INDIRECT)

    @property
    def is_indirect(self) -> bool:
        return self in (
            ControlClass.JUMP_INDIRECT,
            ControlClass.CALL_INDIRECT,
            ControlClass.RETURN,
        )


class Opcode(enum.Enum):
    """Every instruction the emulator and pipeline understand."""

    # Register-register ALU.
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SLL = "sll"
    SRL = "srl"
    SLT = "slt"
    MUL = "mul"
    # Register-immediate ALU.
    ADDI = "addi"
    ANDI = "andi"
    XORI = "xori"
    SLLI = "slli"
    SRLI = "srli"
    LI = "li"
    # Memory.
    LOAD = "load"
    STORE = "store"
    # Control flow.
    BEQZ = "beqz"
    BNEZ = "bnez"
    BLTZ = "bltz"
    BGEZ = "bgez"
    J = "j"
    JAL = "jal"
    JR = "jr"
    JALR = "jalr"
    RET = "ret"
    # Misc.
    NOP = "nop"
    HALT = "halt"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Conditional-branch opcodes.
COND_BRANCHES = frozenset({Opcode.BEQZ, Opcode.BNEZ, Opcode.BLTZ, Opcode.BGEZ})

#: Opcodes executed by the integer multiplier (longer latency).
MULTIPLY_OPS = frozenset({Opcode.MUL})

#: Maps opcode -> ControlClass.
CONTROL_CLASS_OF = {
    Opcode.BEQZ: ControlClass.COND_BRANCH,
    Opcode.BNEZ: ControlClass.COND_BRANCH,
    Opcode.BLTZ: ControlClass.COND_BRANCH,
    Opcode.BGEZ: ControlClass.COND_BRANCH,
    Opcode.J: ControlClass.JUMP_DIRECT,
    Opcode.JAL: ControlClass.CALL_DIRECT,
    Opcode.JR: ControlClass.JUMP_INDIRECT,
    Opcode.JALR: ControlClass.CALL_INDIRECT,
    Opcode.RET: ControlClass.RETURN,
}


def control_class(opcode: Opcode) -> ControlClass:
    """Return the predictor-facing classification of ``opcode``."""
    return CONTROL_CLASS_OF.get(opcode, ControlClass.NOT_CONTROL)
