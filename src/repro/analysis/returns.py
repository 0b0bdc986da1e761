"""Return prediction: RAS vs general indirect-branch predictors.

The paper's related-work claim: history-based indirect predictors "can
potentially capture caller history well enough to distinguish among
possible return targets. These general mechanisms, however, do not
achieve the near-100% accuracies possible with a return-address stack."

This instrument measures that on a *clean* (no wrong-path) stream —
the most favourable setting for the general predictors, since the RAS
is the only structure that suffers from corruption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.bpred.btb import BranchTargetBuffer
from repro.bpred.ras import make_ras
from repro.bpred.target_cache import TargetCache
from repro.config.options import RepairMechanism
from repro.emu.emulator import Emulator
from repro.isa.opcodes import ControlClass, WORD_SIZE
from repro.isa.program import Program


@dataclass(frozen=True)
class ReturnPredictorComparison:
    """Per-predictor return accuracy over one program."""

    returns: int
    accuracy: Dict[str, Optional[float]]

    def best_general(self) -> Optional[float]:
        """Best non-RAS accuracy (the alternatives' ceiling)."""
        general = [value for name, value in self.accuracy.items()
                   if name != "ras" and value is not None]
        return max(general) if general else None


def compare_return_predictors(
    program: Program,
    target_cache_histories: Sequence[int] = (0, 2, 4, 8),
    ras_entries: int = 32,
    max_instructions: int = 50_000_000,
) -> ReturnPredictorComparison:
    """Measure return-target accuracy of BTB, target caches, and a RAS.

    All predictors train at commit on the architectural stream; there is
    no speculation, so the RAS figure is its corruption-free ceiling
    (bounded only by overflow).
    """
    btb = BranchTargetBuffer()
    caches = {
        f"target-cache-h{depth}": TargetCache(history_targets=depth)
        for depth in target_cache_histories
    }
    ras = make_ras(ras_entries, RepairMechanism.NONE)

    hits: Dict[str, int] = {"btb": 0, "ras": 0}
    hits.update({name: 0 for name in caches})
    returns = 0

    emulator = Emulator(program, max_instructions)
    for pc, inst, actual, _, _ in emulator.control_transfers():
        control = inst.control
        if control is ControlClass.RETURN:
            returns += 1
            predictions: Dict[str, Optional[int]] = {"btb": btb.lookup(pc)}
            for name, cache in caches.items():
                predictions[name] = cache.predict(pc)
            predictions["ras"] = ras.pop()
            for name, predicted in predictions.items():
                if predicted == actual:
                    hits[name] += 1
            btb.update(pc, actual, True)
            for cache in caches.values():
                cache.update(pc, actual)
        elif control.is_call:
            ras.push(pc + WORD_SIZE)
    accuracy: Dict[str, Optional[float]] = {
        name: (count / returns if returns else None)
        for name, count in hits.items()
    }
    return ReturnPredictorComparison(returns=returns, accuracy=accuracy)
