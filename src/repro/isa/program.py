"""The program container: a text segment, entry point, and initial data."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import AssemblyError, EmulationError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import WORD_SIZE


class Program:
    """An assembled program ready for emulation or simulation.

    The text segment starts at byte address 0; instruction *i* lives at
    byte address ``i * WORD_SIZE``. The data segment is a sparse mapping
    from byte address to initial word value (uninitialised memory reads
    as zero). ``labels`` maps symbolic names to byte addresses and is
    kept purely for diagnostics.
    """

    def __init__(
        self,
        text: Sequence[Instruction],
        entry: int = 0,
        data: Optional[Dict[int, int]] = None,
        labels: Optional[Dict[str, int]] = None,
        name: str = "program",
    ) -> None:
        if not text:
            raise AssemblyError("program has no instructions")
        self.text: List[Instruction] = list(text)
        self.data: Dict[int, int] = dict(data or {})
        self.labels: Dict[str, int] = dict(labels or {})
        self.name = name
        self.entry = entry
        self._validate()

    def _validate(self) -> None:
        limit = len(self.text) * WORD_SIZE
        if not 0 <= self.entry < limit or self.entry % WORD_SIZE:
            raise AssemblyError(f"entry point {self.entry} invalid")
        for index, inst in enumerate(self.text):
            if inst.target is not None:
                if not 0 <= inst.target < limit or inst.target % WORD_SIZE:
                    raise AssemblyError(
                        f"instruction {index} ({inst!r}) targets {inst.target}, "
                        f"outside text segment [0, {limit})"
                    )

    def __len__(self) -> int:
        return len(self.text)

    @property
    def text_limit(self) -> int:
        """One past the last valid instruction byte address."""
        return len(self.text) * WORD_SIZE

    def in_text(self, pc: int) -> bool:
        return 0 <= pc < self.text_limit and pc % WORD_SIZE == 0

    def fetch(self, pc: int) -> Instruction:
        """Return the instruction at byte address ``pc``."""
        if not self.in_text(pc):
            raise EmulationError(f"fetch from {pc}: outside text segment")
        return self.text[pc // WORD_SIZE]

    def address_of(self, label: str) -> int:
        try:
            return self.labels[label]
        except KeyError:
            raise AssemblyError(f"unknown label {label!r}") from None

    def static_counts(self) -> Dict[str, int]:
        """Count static instructions by opcode name (for workload tables)."""
        counts: Dict[str, int] = {}
        for inst in self.text:
            counts[inst.opcode.value] = counts.get(inst.opcode.value, 0) + 1
        return counts

    def disassemble(self, start: int = 0, count: Optional[int] = None) -> str:
        """Render a human-readable listing (for debugging and examples)."""
        address_to_label = {addr: name for name, addr in self.labels.items()}
        lines = []
        begin = start // WORD_SIZE
        end = len(self.text) if count is None else min(len(self.text), begin + count)
        for index in range(begin, end):
            pc = index * WORD_SIZE
            label = address_to_label.get(pc)
            if label:
                lines.append(f"{label}:")
            lines.append(f"  {pc:6d}: {self.text[index]!r}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Program({self.name!r}, {len(self.text)} instructions, "
            f"{len(self.data)} data words)"
        )
