"""Classify return mispredictions by the repair they would have needed.

Four return-address stacks — one per primary mechanism — run in
lockstep through the same program with the same wrong-path replay.
Every *committed* return is then labelled with the weakest mechanism
whose stack predicted it correctly:

=================  ========================================================
``clean``          even the unrepaired stack was right (no corruption
                   reached this return)
``needs_pointer``  pointer restore sufficed — the wrong path only made
                   net pushes/pops
``needs_contents`` the wrong path popped then pushed, overwriting the
                   top entry: the paper's headline case
``needs_full``     corruption reached below the top entry — only a full
                   checkpoint repairs it
``unrepairable``   even the fully checkpointed stack missed (deep call
                   chains overflowing the stack, or genuinely wild
                   control flow)
=================  ========================================================

The paper's argument is quantitative: ``needs_full`` and
``unrepairable`` are rare, so saving one pointer and one address per
branch captures almost all of full checkpointing's benefit. This
instrument measures exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bpred.btb import BranchTargetBuffer
from repro.bpred.hybrid import HybridPredictor
from repro.bpred.ras import BaseRas, make_ras
from repro.config.machine import BranchPredictorConfig
from repro.config.options import RepairMechanism
from repro.emu.emulator import Emulator
from repro.isa.opcodes import ControlClass, WORD_SIZE
from repro.isa.program import Program

#: Classification order: weakest sufficient mechanism first.
CATEGORIES = ("clean", "needs_pointer", "needs_contents", "needs_full",
              "unrepairable")

_LOCKSTEP_MECHANISMS = (
    RepairMechanism.NONE,
    RepairMechanism.TOS_POINTER,
    RepairMechanism.TOS_POINTER_AND_CONTENTS,
    RepairMechanism.FULL_STACK,
)


@dataclass
class CorruptionBreakdown:
    """Counts of committed returns by corruption category."""

    counts: Dict[str, int] = field(
        default_factory=lambda: {name: 0 for name in CATEGORIES})
    returns: int = 0

    def record(self, category: str) -> None:
        self.counts[category] += 1
        self.returns += 1

    def fraction(self, category: str) -> Optional[float]:
        if self.returns == 0:
            return None
        return self.counts[category] / self.returns

    def implied_hit_rate(self, mechanism: RepairMechanism) -> Optional[float]:
        """Hit rate a mechanism achieves given this breakdown."""
        if self.returns == 0:
            return None
        repaired = self.counts["clean"]
        if mechanism in (RepairMechanism.TOS_POINTER,
                         RepairMechanism.TOS_POINTER_AND_CONTENTS,
                         RepairMechanism.FULL_STACK):
            repaired += self.counts["needs_pointer"]
        if mechanism in (RepairMechanism.TOS_POINTER_AND_CONTENTS,
                         RepairMechanism.FULL_STACK):
            repaired += self.counts["needs_contents"]
        if mechanism is RepairMechanism.FULL_STACK:
            repaired += self.counts["needs_full"]
        return repaired / self.returns

    def as_rows(self) -> List[List[object]]:
        rows = []
        for name in CATEGORIES:
            fraction = self.fraction(name)
            rows.append([
                name,
                self.counts[name],
                None if fraction is None else round(100 * fraction, 2),
            ])
        return rows


class _LockstepStacks:
    """The four mechanism stacks driven by identical events."""

    def __init__(self, entries: int) -> None:
        self.stacks: Dict[RepairMechanism, BaseRas] = {
            mechanism: make_ras(entries, mechanism)
            for mechanism in _LOCKSTEP_MECHANISMS
        }

    def push(self, address: int) -> None:
        for stack in self.stacks.values():
            stack.push(address)

    def pop(self) -> Dict[RepairMechanism, Optional[int]]:
        return {mechanism: stack.pop()
                for mechanism, stack in self.stacks.items()}

    def checkpoint(self) -> Dict[RepairMechanism, object]:
        return {mechanism: stack.checkpoint()
                for mechanism, stack in self.stacks.items()}

    def restore(self, tokens: Dict[RepairMechanism, object]) -> None:
        for mechanism, stack in self.stacks.items():
            stack.restore(tokens[mechanism])


class CorruptionAnalyzer:
    """Front-end replay (as in :mod:`repro.fastsim`) over lockstep stacks."""

    def __init__(
        self,
        program: Program,
        config: Optional[BranchPredictorConfig] = None,
        wrong_path_instructions: int = 16,
        max_instructions: int = 50_000_000,
    ) -> None:
        self.program = program
        self.config = config or BranchPredictorConfig()
        self.wrong_path_instructions = wrong_path_instructions
        self.max_instructions = max_instructions
        self.hybrid = HybridPredictor(
            self.config.gag_entries,
            self.config.pag_history_entries,
            self.config.pag_history_bits,
            self.config.selector_entries,
        )
        self.btb = BranchTargetBuffer(self.config.btb_sets,
                                      self.config.btb_assoc)
        self.stacks = _LockstepStacks(self.config.ras_entries)

    # -- prediction helpers -------------------------------------------

    def _predict_target(self, pc: int, inst) -> Optional[int]:
        """Predicted next PC for the wrong-path walk (front-end view).

        Returns are predicted here from the FULL_STACK stack purely to
        route the walk; each stack's own pop already happened in
        lockstep, so routing does not bias the comparison.
        """
        control = inst.control
        fallthrough = pc + WORD_SIZE
        if control is ControlClass.COND_BRANCH:
            if self.hybrid.predict(pc):
                predicted = self.btb.lookup(pc)
                return predicted if predicted is not None else fallthrough
            return fallthrough
        if control in (ControlClass.JUMP_DIRECT, ControlClass.CALL_DIRECT):
            return inst.target
        predicted = self.btb.lookup(pc)
        return predicted if predicted is not None else fallthrough

    def _front_end_step(self, pc: int, inst) -> int:
        """Apply RAS actions for one fetched instruction; return next PC."""
        control = inst.control
        next_pc: int
        if control is ControlClass.RETURN:
            popped = self.stacks.pop()
            reference = popped[RepairMechanism.FULL_STACK]
            next_pc = (reference if reference is not None
                       else pc + WORD_SIZE)
        else:
            next_pc = self._predict_target(pc, inst) or pc + WORD_SIZE
        if control.is_call:
            self.stacks.push(pc + WORD_SIZE)
        return next_pc

    def _walk_wrong_path(self, start_pc: int) -> None:
        pc = start_pc
        for _ in range(self.wrong_path_instructions):
            if not self.program.in_text(pc):
                return
            inst = self.program.fetch(pc)
            if inst.opcode.value == "halt":
                return
            if inst.is_control:
                pc = self._front_end_step(pc, inst)
            else:
                pc += WORD_SIZE

    # -- classification -------------------------------------------------

    @staticmethod
    def _classify(predictions: Dict[RepairMechanism, Optional[int]],
                  actual: int) -> str:
        if predictions[RepairMechanism.NONE] == actual:
            return "clean"
        if predictions[RepairMechanism.TOS_POINTER] == actual:
            return "needs_pointer"
        if predictions[RepairMechanism.TOS_POINTER_AND_CONTENTS] == actual:
            return "needs_contents"
        if predictions[RepairMechanism.FULL_STACK] == actual:
            return "needs_full"
        return "unrepairable"

    def run(self) -> CorruptionBreakdown:
        """Replay the program; classify every committed return."""
        breakdown = CorruptionBreakdown()
        stacks = self.stacks
        emulator = Emulator(self.program, self.max_instructions)
        for pc, inst, next_pc, taken, _ in emulator.control_transfers():
            control = inst.control
            tokens = None
            predictions = None
            predicted_target: Optional[int]
            if control is ControlClass.RETURN:
                predictions = stacks.pop()
                predicted_target = predictions[RepairMechanism.FULL_STACK]
            else:
                predicted_target = self._predict_target(pc, inst)
            if control.is_call:
                stacks.push(pc + WORD_SIZE)
            if control in (ControlClass.COND_BRANCH,
                           ControlClass.JUMP_INDIRECT,
                           ControlClass.CALL_INDIRECT,
                           ControlClass.RETURN):
                tokens = stacks.checkpoint()

            if predictions is not None:
                breakdown.record(self._classify(predictions, next_pc))
            if predicted_target != next_pc and tokens is not None:
                self._walk_wrong_path(
                    predicted_target if predicted_target is not None
                    else pc + WORD_SIZE)
                stacks.restore(tokens)
            # Commit-time training.
            if control is ControlClass.COND_BRANCH:
                self.hybrid.update(pc, taken)
                self.btb.update(pc, next_pc, taken)
            else:
                self.btb.update(pc, next_pc, True)
        return breakdown
