"""A two-pass label-resolving program builder.

The builder is the only way code in this repository creates programs:
the workload generator, the hand-written kernels and the tests all emit
through it, so target/operand validation lives in exactly one place.

Example:
    >>> b = ProgramBuilder("demo")
    >>> b.label("main")
    >>> b.li(1, 3)
    >>> b.jal("double")
    >>> b.halt()
    >>> b.label("double")
    >>> b.add(1, 1, 1)
    >>> b.ret()
    >>> program = b.build(entry="main")
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.errors import AssemblyError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode, WORD_SIZE
from repro.isa.program import Program

#: A branch target: either a label name or an absolute byte address.
Target = Union[str, int]


class ProgramBuilder:
    """Accumulates instructions and labels, then assembles a Program."""

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self._text: List[Tuple[Opcode, int, int, int, int, Optional[Target]]] = []
        self._labels: Dict[str, int] = {}
        self._data: Dict[int, Target] = {}

    # ------------------------------------------------------------------
    # Layout.

    @property
    def here(self) -> int:
        """Byte address of the next instruction to be emitted."""
        return len(self._text) * WORD_SIZE

    def label(self, name: str) -> int:
        """Define ``name`` at the current address and return that address."""
        if name in self._labels:
            raise AssemblyError(f"label {name!r} defined twice")
        self._labels[name] = self.here
        return self.here

    def put_data(self, address: int, value: Target) -> None:
        """Set an initial data-segment word.

        ``value`` may be a label name, in which case the word receives
        that label's address at build time (jump tables, function-pointer
        tables).
        """
        self._data[address] = value

    # ------------------------------------------------------------------
    # Emission primitives.

    def _emit(
        self,
        opcode: Opcode,
        rd: int = 0,
        rs: int = 0,
        rt: int = 0,
        imm: int = 0,
        target: Optional[Target] = None,
    ) -> int:
        pc = self.here
        self._text.append((opcode, rd, rs, rt, imm, target))
        return pc

    # ALU, register-register.
    def add(self, rd: int, rs: int, rt: int) -> int:
        return self._emit(Opcode.ADD, rd=rd, rs=rs, rt=rt)

    def sub(self, rd: int, rs: int, rt: int) -> int:
        return self._emit(Opcode.SUB, rd=rd, rs=rs, rt=rt)

    def and_(self, rd: int, rs: int, rt: int) -> int:
        return self._emit(Opcode.AND, rd=rd, rs=rs, rt=rt)

    def or_(self, rd: int, rs: int, rt: int) -> int:
        return self._emit(Opcode.OR, rd=rd, rs=rs, rt=rt)

    def xor(self, rd: int, rs: int, rt: int) -> int:
        return self._emit(Opcode.XOR, rd=rd, rs=rs, rt=rt)

    def sll(self, rd: int, rs: int, rt: int) -> int:
        return self._emit(Opcode.SLL, rd=rd, rs=rs, rt=rt)

    def srl(self, rd: int, rs: int, rt: int) -> int:
        return self._emit(Opcode.SRL, rd=rd, rs=rs, rt=rt)

    def slt(self, rd: int, rs: int, rt: int) -> int:
        return self._emit(Opcode.SLT, rd=rd, rs=rs, rt=rt)

    def mul(self, rd: int, rs: int, rt: int) -> int:
        return self._emit(Opcode.MUL, rd=rd, rs=rs, rt=rt)

    # ALU, register-immediate.
    def addi(self, rd: int, rs: int, imm: int) -> int:
        return self._emit(Opcode.ADDI, rd=rd, rs=rs, imm=imm)

    def andi(self, rd: int, rs: int, imm: int) -> int:
        return self._emit(Opcode.ANDI, rd=rd, rs=rs, imm=imm)

    def xori(self, rd: int, rs: int, imm: int) -> int:
        return self._emit(Opcode.XORI, rd=rd, rs=rs, imm=imm)

    def slli(self, rd: int, rs: int, imm: int) -> int:
        return self._emit(Opcode.SLLI, rd=rd, rs=rs, imm=imm)

    def srli(self, rd: int, rs: int, imm: int) -> int:
        return self._emit(Opcode.SRLI, rd=rd, rs=rs, imm=imm)

    def li(self, rd: int, imm: int) -> int:
        return self._emit(Opcode.LI, rd=rd, imm=imm)

    # Memory.
    def load(self, rd: int, rs: int, offset: int = 0) -> int:
        return self._emit(Opcode.LOAD, rd=rd, rs=rs, imm=offset)

    def store(self, rt: int, rs: int, offset: int = 0) -> int:
        return self._emit(Opcode.STORE, rt=rt, rs=rs, imm=offset)

    # Control flow.
    def beqz(self, rs: int, target: Target) -> int:
        return self._emit(Opcode.BEQZ, rs=rs, target=target)

    def bnez(self, rs: int, target: Target) -> int:
        return self._emit(Opcode.BNEZ, rs=rs, target=target)

    def bltz(self, rs: int, target: Target) -> int:
        return self._emit(Opcode.BLTZ, rs=rs, target=target)

    def bgez(self, rs: int, target: Target) -> int:
        return self._emit(Opcode.BGEZ, rs=rs, target=target)

    def j(self, target: Target) -> int:
        return self._emit(Opcode.J, target=target)

    def jal(self, target: Target) -> int:
        return self._emit(Opcode.JAL, target=target)

    def jr(self, rs: int) -> int:
        return self._emit(Opcode.JR, rs=rs)

    def jalr(self, rs: int) -> int:
        return self._emit(Opcode.JALR, rs=rs)

    def ret(self) -> int:
        return self._emit(Opcode.RET)

    def nop(self) -> int:
        return self._emit(Opcode.NOP)

    def halt(self) -> int:
        return self._emit(Opcode.HALT)

    # ------------------------------------------------------------------
    # Assembly.

    def _resolve(self, target: Target) -> int:
        if isinstance(target, str):
            try:
                return self._labels[target]
            except KeyError:
                raise AssemblyError(f"undefined label {target!r}") from None
        return target

    def build(self, entry: Target = 0) -> Program:
        """Resolve labels and return the assembled :class:`Program`."""
        if not self._text:
            raise AssemblyError(f"program {self.name!r} is empty")
        text = []
        for opcode, rd, rs, rt, imm, target in self._text:
            resolved = None if target is None else self._resolve(target)
            text.append(
                Instruction(opcode, rd=rd, rs=rs, rt=rt, imm=imm, target=resolved)
            )
        data = {address: self._resolve(value) for address, value in self._data.items()}
        return Program(
            text,
            entry=self._resolve(entry),
            data=data,
            labels=dict(self._labels),
            name=self.name,
        )
