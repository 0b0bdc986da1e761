"""Architectural machine state with undo logging and copy-on-write forks.

Values are 64-bit unsigned words; signed comparisons interpret bit 63 as
the sign. Register 0 is hard-wired to zero. Memory is a sparse mapping
from byte address to word, reading as zero when uninitialised.

Two speculation facilities coexist:

* **Undo logs** (single-path pipelines): every write may record the
  previous value into a caller-supplied list; :meth:`rewind` plays such
  a list backwards to restore the pre-write state.
* **Copy-on-write forks** (multipath pipelines): :meth:`fork` creates a
  child whose memory overlays the parent's; reads walk the parent chain
  and writes stay private until :meth:`collapse_into_parent`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.isa.opcodes import NUM_REGS, REG_ZERO

#: 64-bit word mask.
MASK64 = (1 << 64) - 1
#: Sign bit of the 64-bit word.
SIGN_BIT = 1 << 63

#: One undo record: ("r", index, old) or ("m", addr, old, existed_locally).
UndoEntry = Tuple


def to_signed(value: int) -> int:
    """Interpret an unsigned 64-bit word as a signed integer."""
    return value - (1 << 64) if value & SIGN_BIT else value


def to_unsigned(value: int) -> int:
    """Truncate a Python integer to an unsigned 64-bit word."""
    return value & MASK64


class MachineState:
    """Registers, memory, PC and halt flag for one execution context."""

    __slots__ = ("regs", "memory", "parent", "pc", "halted")

    def __init__(
        self,
        pc: int = 0,
        initial_memory: Optional[Dict[int, int]] = None,
        parent: Optional["MachineState"] = None,
    ) -> None:
        if parent is None:
            self.regs: List[int] = [0] * NUM_REGS
        else:
            self.regs = list(parent.regs)
            pc = parent.pc
        self.memory: Dict[int, int] = dict(initial_memory or {})
        self.parent = parent
        self.pc = pc
        self.halted = False if parent is None else parent.halted

    # ------------------------------------------------------------------
    # Registers.

    def write_reg(
        self, index: int, value: int, log: Optional[List[UndoEntry]] = None
    ) -> None:
        if index == REG_ZERO:
            return
        if log is not None:
            log.append(("r", index, self.regs[index]))
        self.regs[index] = value & MASK64

    # ------------------------------------------------------------------
    # Memory.

    def read_mem(self, address: int) -> int:
        address &= MASK64
        state: Optional[MachineState] = self
        while state is not None:
            value = state.memory.get(address)
            if value is not None:
                return value
            state = state.parent
        return 0

    def write_mem(
        self, address: int, value: int, log: Optional[List[UndoEntry]] = None
    ) -> None:
        address &= MASK64
        if log is not None:
            existed = address in self.memory
            old = self.memory[address] if existed else 0
            log.append(("m", address, old, existed))
        self.memory[address] = value & MASK64

    # ------------------------------------------------------------------
    # Speculation support.

    def rewind(self, log: List[UndoEntry]) -> None:
        """Undo every write recorded in ``log``, newest first."""
        for entry in reversed(log):
            if entry[0] == "r":
                _, index, old = entry
                self.regs[index] = old
            else:
                _, address, old, existed = entry
                if existed:
                    self.memory[address] = old
                else:
                    self.memory.pop(address, None)
        log.clear()

    def fork(self) -> "MachineState":
        """Create a copy-on-write child context (multipath forking)."""
        return MachineState(parent=self)

    def collapse_into_parent(self) -> "MachineState":
        """Merge this child's private writes into its parent and return it.

        Used when a forked path is confirmed correct and its sibling has
        been squashed: the surviving child's state becomes architectural.
        """
        if self.parent is None:
            raise ValueError("root state has no parent to collapse into")
        parent = self.parent
        parent.memory.update(self.memory)
        parent.regs = list(self.regs)
        parent.pc = self.pc
        parent.halted = self.halted
        return parent

    def depth(self) -> int:
        """Number of ancestors (0 for the root state)."""
        count = 0
        state = self.parent
        while state is not None:
            count += 1
            state = state.parent
        return count

    def __repr__(self) -> str:
        return (
            f"MachineState(pc={self.pc}, halted={self.halted}, "
            f"depth={self.depth()}, {len(self.memory)} local words)"
        )
