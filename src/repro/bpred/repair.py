"""Shadow-checkpoint slot accounting.

Real processors keep branch checkpoints (register maps, TOS pointers,
...) in a limited pool of shadow-state slots — 4 on the MIPS R10000,
about 20 on the Alpha 21264. When every slot is busy, a newly predicted
branch proceeds *without* a checkpoint: if it later mispredicts, the
return-address stack cannot be repaired for it. The A2 ablation bench
sweeps this limit.
"""

from __future__ import annotations

from typing import Optional

from repro.stats import StatGroup


class ShadowCheckpointPool:
    """The shadow-state budget and how much of it is in flight.

    :class:`~repro.bpred.predictor.FrontEndPredictor` takes a slot when
    it checkpoints a prediction and returns it when the prediction
    leaves flight; a prediction that holds a slot says so in its
    ``has_slot`` flag, so ``in_use`` never goes negative.
    """

    def __init__(self, slots: Optional[int] = None) -> None:
        """``slots=None`` models unlimited shadow state."""
        if slots is not None and slots < 0:
            raise ValueError("slots must be None or >= 0")
        self.slots = slots
        self.in_use = 0
        self.stats = StatGroup("shadow_checkpoints")
        #: Predictions that found every slot busy.
        self.exhausted = self.stats.counter("exhausted")

    @property
    def exhausted_count(self) -> int:
        return self.exhausted.value
