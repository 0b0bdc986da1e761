"""The front-end predictor facade.

One object bundles everything the fetch engine consults — the hybrid
direction predictor, the BTB and the return-address stack — and owns
the checkpoint discipline:

* RAS pushes/pops happen *speculatively at prediction time* (that is
  the whole problem the paper studies);
* every instruction that can trigger a recovery (conditional branch,
  indirect jump/call, return) captures a repair checkpoint *after* its
  own RAS action, subject to shadow-slot availability;
* direction tables and the BTB train at *commit* time, as in
  SimpleScalar.

The pipelines drive it with three calls per control instruction:
:meth:`predict` at fetch, :meth:`repair` at misprediction recovery and
:meth:`train_commit` at commit (plus :meth:`release` when the
instruction leaves flight).
"""

from __future__ import annotations

from typing import Optional

from repro.bpred.btb import BranchTargetBuffer
from repro.bpred.direction import make_direction_predictor
from repro.bpred.ras import BaseRas, make_ras
from repro.bpred.repair import ShadowCheckpointPool
from repro.config.machine import BranchPredictorConfig
from repro.isa.instruction import Instruction
from repro.isa.opcodes import ControlClass, WORD_SIZE
from repro.stats import StatGroup

#: The control classes, bound once: ``predict`` and ``train_commit``
#: test them by identity, where a frozenset ``in`` test would run the
#: enum's Python-level ``__hash__`` per branch.
_COND = ControlClass.COND_BRANCH
_RETURN = ControlClass.RETURN
_JUMP_DIRECT = ControlClass.JUMP_DIRECT
_CALL_DIRECT = ControlClass.CALL_DIRECT
_JUMP_INDIRECT = ControlClass.JUMP_INDIRECT
_CALL_INDIRECT = ControlClass.CALL_INDIRECT


def new_stack(config: BranchPredictorConfig) -> Optional[BaseRas]:
    """A fresh return-address stack as ``config`` describes it, or
    ``None`` when the RAS is disabled."""
    if not config.ras_enabled:
        return None
    return make_ras(config.ras_entries, config.ras_repair,
                    config.self_checkpoint_overprovision,
                    config.repair_contents_depth)


class Prediction:
    """Everything the pipeline must remember about one prediction.

    Built once per predicted control instruction, from positional
    arguments only (keyword binding costs a measurable share of a
    prediction).
    """

    __slots__ = (
        "pc", "control", "taken", "target", "checkpoint", "has_slot",
        "used_ras", "from_btb", "ras",
    )

    def __init__(
        self,
        pc: int,
        control: ControlClass,
        taken: bool,
        target: int,
        checkpoint: object,
        has_slot: bool,
        used_ras: bool,
        from_btb: bool,
        ras: Optional[BaseRas],
    ) -> None:
        self.pc = pc
        self.control = control
        self.taken = taken
        self.target = target
        self.checkpoint = checkpoint
        self.has_slot = has_slot
        self.used_ras = used_ras
        self.from_btb = from_btb
        self.ras = ras

    def __repr__(self) -> str:
        return (
            f"Prediction(pc={self.pc}, {self.control.value}, "
            f"taken={self.taken}, target={self.target})"
        )


class FrontEndPredictor:
    """Hybrid + BTB + RAS with checkpoint/repair plumbing."""

    def __init__(self, config: BranchPredictorConfig) -> None:
        self.config = config
        #: The direction predictor ("hybrid" = the paper's baseline;
        #: kept under the historical attribute name as well).
        self.direction = make_direction_predictor(config)
        self.hybrid = self.direction
        self.btb = BranchTargetBuffer(config.btb_sets, config.btb_assoc)
        self.ras = new_stack(config)
        self.shadow_pool = ShadowCheckpointPool(config.shadow_checkpoint_slots)
        self.stats = StatGroup("frontend")
        self._return_accuracy = self.stats.rate(
            "return_accuracy", "committed returns predicted correctly")
        self._returns_from_btb = self.stats.counter(
            "returns_from_btb", "returns predicted by BTB fallback")
        self._indirect_accuracy = self.stats.rate(
            "indirect_accuracy", "committed indirect jumps/calls correct")
        self._cond_accuracy = self.stats.rate(
            "cond_accuracy", "committed conditional branches correct")

    # ------------------------------------------------------------------
    # Fetch time.

    def predict(
        self,
        pc: int,
        inst: Instruction,
        ras: Optional[BaseRas] = None,
    ) -> Prediction:
        """Predict the control instruction at ``pc`` and update the RAS.

        ``ras`` overrides the default stack — multipath per-path stacks
        pass their own. The returned Prediction holds the checkpoint to
        restore on recovery. Conditional branches, indirect jumps and
        calls, and returns take a checkpoint (when a shadow slot is
        free) *after* their own RAS action: their prediction can be
        wrong. Direct jumps and calls, and non-control instructions,
        cannot mispredict and take none.
        """
        if ras is None:
            ras = self.ras
        control = inst.control
        fallthrough = pc + WORD_SIZE
        taken = True
        target = fallthrough
        used_ras = False
        from_btb = False

        if control is _COND:
            taken = self.direction.predict(pc)
            if taken:
                predicted = self.btb.lookup(pc)
                if predicted is None:
                    # Decoupled BTB miss: the fetch engine cannot
                    # redirect, so the branch effectively predicts
                    # not-taken.
                    taken = False
                else:
                    target = predicted
        elif control is _RETURN:
            if ras is not None:
                popped = ras.pop()
                used_ras = True
                if popped is None:
                    # Valid-bits detection (or an empty linked stack):
                    # the stack knows it has nothing credible, fall back
                    # to the BTB.
                    popped = self.btb.lookup(pc)
                    from_btb = True
                if popped is not None:
                    target = popped
            else:
                predicted = self.btb.lookup(pc)
                from_btb = True
                if predicted is not None:
                    target = predicted
        elif control is _JUMP_INDIRECT or control is _CALL_INDIRECT:
            predicted = self.btb.lookup(pc)
            from_btb = True
            if predicted is not None:
                target = predicted
            if control is _CALL_INDIRECT and ras is not None:
                ras.push(fallthrough)
        else:
            if control is _JUMP_DIRECT or control is _CALL_DIRECT:
                if inst.target is not None:
                    target = inst.target
                if control is _CALL_DIRECT and ras is not None:
                    ras.push(fallthrough)
            return Prediction(pc, control, True, target, None, False,
                              False, False, ras)

        checkpoint = None
        has_slot = False
        if ras is not None:
            pool = self.shadow_pool
            slots = pool.slots
            if slots is None or pool.in_use < slots:
                pool.in_use += 1
                has_slot = True
                checkpoint = ras.checkpoint()
            else:
                pool.exhausted.value += 1
        return Prediction(pc, control, taken, target, checkpoint, has_slot,
                          used_ras, from_btb, ras)

    # ------------------------------------------------------------------
    # Recovery and retirement.

    def repair(self, prediction: Prediction) -> None:
        """Restore the RAS from this prediction's checkpoint (recovery)."""
        if prediction.ras is not None and prediction.has_slot:
            prediction.ras.restore(prediction.checkpoint)

    def release(self, prediction: Prediction) -> None:
        """Free the shadow slot when the instruction leaves flight."""
        if prediction.has_slot:
            # A slot is held only while has_slot is set, so a second
            # release, or one of a prediction that got no slot, is a
            # no-op and in_use stays non-negative.
            self.shadow_pool.in_use -= 1
            prediction.has_slot = False

    def train_commit(
        self,
        pc: int,
        inst: Instruction,
        taken: bool,
        target: int,
        prediction: Optional[Prediction] = None,
    ) -> None:
        """Commit-time training of the direction tables and BTB.

        ``prediction`` (when the committing instruction still has one)
        feeds the accuracy statistics the paper reports.
        """
        control = inst.control
        if control is _COND:
            self.direction.update(pc, taken)
            if prediction is not None:
                accuracy = self._cond_accuracy
                accuracy.events += 1
                if (prediction.taken == taken
                        and (not taken or prediction.target == target)):
                    accuracy.hits += 1
            self.btb.update(pc, target, taken)
        elif control is _RETURN:
            # Returns always train the BTB so the fallback path (no RAS,
            # or an invalidated entry) has something to predict from.
            self.btb.update(pc, target, True)
            if prediction is not None:
                accuracy = self._return_accuracy
                accuracy.events += 1
                if prediction.target == target:
                    accuracy.hits += 1
                if prediction.from_btb:
                    self._returns_from_btb.value += 1
        elif control is _JUMP_INDIRECT or control is _CALL_INDIRECT:
            self.btb.update(pc, target, True)
            if prediction is not None:
                accuracy = self._indirect_accuracy
                accuracy.events += 1
                if prediction.target == target:
                    accuracy.hits += 1

    @property
    def return_accuracy(self) -> Optional[float]:
        return self._return_accuracy.value

    @property
    def cond_accuracy(self) -> Optional[float]:
        return self._cond_accuracy.value

    @property
    def indirect_accuracy(self) -> Optional[float]:
        return self._indirect_accuracy.value
