"""Workload characterisation — one row of Table 2 per workload.

Runs each workload on the reference emulator and summarises the dynamic
properties that matter to the paper: instruction count, call/return
density, conditional-branch density, and call-depth statistics.
:func:`repro.core.tables.table2_workloads` builds the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.emu.emulator import Emulator
from repro.isa.program import Program


@dataclass(frozen=True)
class WorkloadCharacter:
    """Dynamic-behaviour summary of one workload run."""

    name: str
    instructions: int
    static_instructions: int
    cond_branch_pct: float
    taken_cond_pct: float
    call_pct: float
    return_pct: float
    indirect_jump_pct: float
    load_store_pct: float
    mean_call_depth: Optional[float]
    max_call_depth: Optional[int]

    def as_row(self) -> List[object]:
        return [
            self.name,
            self.instructions,
            self.static_instructions,
            round(self.cond_branch_pct, 2),
            round(self.taken_cond_pct, 2),
            round(self.call_pct, 2),
            round(self.return_pct, 2),
            round(self.indirect_jump_pct, 2),
            round(self.load_store_pct, 2),
            None if self.mean_call_depth is None else round(self.mean_call_depth, 1),
            self.max_call_depth,
        ]


TABLE2_HEADERS = [
    "benchmark", "dyn insts", "static insts", "cond br %", "taken %",
    "call %", "ret %", "ind jmp %", "ld/st %", "mean depth", "max depth",
]


def characterize(program: Program, max_instructions: int = 50_000_000) -> WorkloadCharacter:
    """Run ``program`` functionally and summarise its behaviour."""
    emulator = Emulator(program, max_instructions=max_instructions)
    stats = emulator.run()
    n = max(1, stats.instructions)

    def pct(count: int) -> float:
        return 100.0 * count / n

    taken_pct = (
        100.0 * stats.taken_cond_branches / stats.cond_branches
        if stats.cond_branches else 0.0
    )
    return WorkloadCharacter(
        name=program.name,
        instructions=stats.instructions,
        static_instructions=len(program),
        cond_branch_pct=pct(stats.cond_branches),
        taken_cond_pct=taken_pct,
        call_pct=pct(stats.calls),
        return_pct=pct(stats.returns),
        indirect_jump_pct=pct(stats.indirect_jumps),
        load_store_pct=pct(stats.loads + stats.stores),
        mean_call_depth=stats.call_depth.mean,
        max_call_depth=stats.call_depth.max_key,
    )

