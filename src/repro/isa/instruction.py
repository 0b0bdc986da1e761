"""The immutable instruction record.

Instructions are created once at assembly time and shared by every
simulator; the hot simulation loops read their attributes directly, so
the class uses ``__slots__`` and precomputes its control classification.
:meth:`ProgramBuilder.build <repro.isa.assembler.ProgramBuilder.build>`
gives every position with equal fields the same record, so a record
refuses assignment: changing one position's fields would change all of
them.
"""

from __future__ import annotations

from typing import Optional

from repro.isa.opcodes import (
    ControlClass,
    Opcode,
    COND_BRANCHES,
    NUM_REGS,
    control_class,
)
from repro.errors import AssemblyError

#: Sets a field past :meth:`Instruction.__setattr__`, which refuses.
_init = object.__setattr__


class Instruction:
    """One decoded instruction.

    Fields not meaningful for an opcode are left at their defaults
    (``0`` / ``None``); the assembler is responsible for populating the
    meaningful ones. Records are immutable, and several positions of a
    program may share one: read an instruction's fields, never its
    identity.

    Attributes:
        opcode: the operation.
        rd: destination register index.
        rs: first source register index.
        rt: second source register index.
        imm: immediate operand (also the load/store displacement).
        target: byte address of a direct branch/jump/call target.
        control: precomputed :class:`ControlClass`.
    """

    __slots__ = ("opcode", "rd", "rs", "rt", "imm", "target", "control")

    def __init__(
        self,
        opcode: Opcode,
        rd: int = 0,
        rs: int = 0,
        rt: int = 0,
        imm: int = 0,
        target: Optional[int] = None,
    ) -> None:
        for name, reg in (("rd", rd), ("rs", rs), ("rt", rt)):
            if not 0 <= reg < NUM_REGS:
                raise AssemblyError(f"{name}={reg} out of range for {opcode}")
        _init(self, "opcode", opcode)
        _init(self, "rd", rd)
        _init(self, "rs", rs)
        _init(self, "rt", rt)
        _init(self, "imm", imm)
        _init(self, "target", target)
        _init(self, "control", control_class(opcode))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Instruction is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Instruction is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # Pickle as a constructor call: the default restore of slot
        # state would go through the __setattr__ above.
        return (Instruction, (self.opcode, self.rd, self.rs, self.rt,
                              self.imm, self.target))

    @property
    def is_control(self) -> bool:
        return self.control is not ControlClass.NOT_CONTROL

    @property
    def is_cond_branch(self) -> bool:
        return self.opcode in COND_BRANCHES

    @property
    def is_memory(self) -> bool:
        return self.opcode in (Opcode.LOAD, Opcode.STORE)

    def __repr__(self) -> str:
        parts = [self.opcode.value]
        if self.opcode in (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR,
                           Opcode.XOR, Opcode.SLL, Opcode.SRL, Opcode.SLT,
                           Opcode.MUL):
            parts.append(f"r{self.rd}, r{self.rs}, r{self.rt}")
        elif self.opcode in (Opcode.ADDI, Opcode.ANDI, Opcode.XORI,
                             Opcode.SLLI, Opcode.SRLI):
            parts.append(f"r{self.rd}, r{self.rs}, {self.imm}")
        elif self.opcode is Opcode.LI:
            parts.append(f"r{self.rd}, {self.imm}")
        elif self.opcode is Opcode.LOAD:
            parts.append(f"r{self.rd}, {self.imm}(r{self.rs})")
        elif self.opcode is Opcode.STORE:
            parts.append(f"r{self.rt}, {self.imm}(r{self.rs})")
        elif self.is_cond_branch:
            parts.append(f"r{self.rs}, {self.target}")
        elif self.opcode in (Opcode.J, Opcode.JAL):
            parts.append(str(self.target))
        elif self.opcode in (Opcode.JR, Opcode.JALR):
            parts.append(f"r{self.rs}")
        return " ".join(parts)
