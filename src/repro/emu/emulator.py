"""The reference (golden-model) emulator.

Runs a program to completion with no timing model. Used to characterise
workloads (instruction mix, call depth — the paper's Table 2 analogue)
and as the ground truth the pipelines are checked against: a correct
pipeline commits exactly the instruction stream this emulator produces.

It is also the one committed-path loop of every model that does not
execute its own wrong paths: the front-end model
(:mod:`repro.fastsim.frontend_sim`), the analysis instruments and trace
recording read :meth:`Emulator.control_transfers` instead of fetching
and executing for themselves.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.emu.exec_core import execute
from repro.emu.machine_state import MachineState
from repro.errors import EmulationError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import ControlClass
from repro.isa.program import Program
from repro.stats import Histogram

#: One committed instruction: ``(pc, instruction, next pc, taken,
#: index)``. ``index`` counts committed instructions from 0; the next
#: PC of HALT is its own PC.
Commit = Tuple[int, Instruction, int, bool, int]


class CommitRecord:
    """One architecturally executed instruction (for stream comparison)."""

    __slots__ = ("pc", "next_pc", "taken")

    def __init__(self, pc: int, next_pc: int, taken: bool) -> None:
        self.pc = pc
        self.next_pc = next_pc
        self.taken = taken

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CommitRecord)
            and self.pc == other.pc
            and self.next_pc == other.next_pc
            and self.taken == other.taken
        )

    def __repr__(self) -> str:
        return f"CommitRecord(pc={self.pc}, next_pc={self.next_pc}, taken={self.taken})"


class EmulationStats:
    """Dynamic-behaviour summary of one emulated run."""

    def __init__(self) -> None:
        self.instructions = 0
        self.cond_branches = 0
        self.taken_cond_branches = 0
        self.calls = 0
        self.returns = 0
        self.indirect_jumps = 0
        self.direct_jumps = 0
        self.loads = 0
        self.stores = 0
        self.halted = False
        self.call_depth = Histogram("call_depth", "call depth at each call")
        self.opcode_counts: Dict[str, int] = {}

    @property
    def control_transfers(self) -> int:
        return (
            self.cond_branches
            + self.calls
            + self.returns
            + self.indirect_jumps
            + self.direct_jumps
        )

    def __repr__(self) -> str:
        return (
            f"EmulationStats(n={self.instructions}, calls={self.calls}, "
            f"returns={self.returns}, cond={self.cond_branches})"
        )


class Emulator:
    """Run programs functionally, with an instruction watchdog."""

    def __init__(self, program: Program, max_instructions: int = 50_000_000) -> None:
        self.program = program
        self.max_instructions = max_instructions
        self.state = MachineState(
            pc=program.entry, initial_memory=program.data
        )
        #: Instructions committed so far, HALT included.
        self.instructions = 0

    def _commits(self, every: bool) -> Iterator[Commit]:
        """Execute until HALT, yielding every committed instruction (or,
        without ``every``, only the control transfers).

        Raises :class:`EmulationError` when the watchdog limit is
        exceeded (runaway program) or control leaves the text segment.
        """
        state = self.state
        fetch = self.program.fetch
        limit = self.max_instructions
        not_control = ControlClass.NOT_CONTROL
        while not state.halted:
            index = self.instructions
            if index >= limit:
                raise EmulationError(
                    f"watchdog: {limit} instructions without HALT")
            pc = state.pc
            inst = fetch(pc)
            outcome = execute(inst, pc, state)
            self.instructions = index + 1
            if outcome.is_halt:
                state.halted = True
                next_pc = pc
            else:
                next_pc = state.pc = outcome.next_pc
            if every or inst.control is not not_control:
                yield pc, inst, next_pc, outcome.taken, index

    def control_transfers(self) -> Iterator[Commit]:
        """The committed calls, returns, jumps and branches, in order.

        After the stream ends, :attr:`state` is the final architectural
        state and :attr:`instructions` the committed instruction count.
        """
        return self._commits(every=False)

    def trace(self) -> Iterator[CommitRecord]:
        """Yield one :class:`CommitRecord` per executed instruction.

        Terminates when HALT executes (its record has ``next_pc == pc``).
        """
        for pc, _, next_pc, taken, _ in self._commits(every=True):
            yield CommitRecord(pc, next_pc, taken)

    def run(self, collect_mix: bool = True) -> EmulationStats:
        """Run to completion and return dynamic statistics."""
        stats = EmulationStats()
        depth = 0
        for _, inst, _, taken, _ in self._commits(every=True):
            stats.instructions += 1
            control = inst.control
            if control is ControlClass.COND_BRANCH:
                stats.cond_branches += 1
                if taken:
                    stats.taken_cond_branches += 1
            elif control.is_call:
                stats.calls += 1
                depth += 1
                stats.call_depth.record(depth)
            elif control is ControlClass.RETURN:
                stats.returns += 1
                depth = max(0, depth - 1)
            elif control is ControlClass.JUMP_INDIRECT:
                stats.indirect_jumps += 1
            elif control is ControlClass.JUMP_DIRECT:
                stats.direct_jumps += 1
            name = inst.opcode.value
            if name == "load":
                stats.loads += 1
            elif name == "store":
                stats.stores += 1
            if collect_mix:
                stats.opcode_counts[name] = stats.opcode_counts.get(name, 0) + 1
        stats.halted = self.state.halted
        return stats
