"""GAg: a global-history two-level adaptive predictor (Yeh & Patt).

A single global branch-history register indexes one shared pattern table
of 2-bit counters. The paper's baseline uses a 4K-entry GAg (12 bits of
global history) as one component of the McFarling hybrid.
"""

from __future__ import annotations

from repro.bpred.twobit import CounterTable


class GAgPredictor:
    """Global-history predictor with commit-time update.

    The history register is architectural (updated at commit, as the
    paper notes SimpleScalar does), so wrong-path branches never pollute
    it.
    """

    __slots__ = ("history_bits", "history", "_table")

    def __init__(self, entries: int = 4096) -> None:
        self._table = CounterTable(entries, bits=2)
        self.history_bits = entries.bit_length() - 1
        self.history = 0

    def predict(self, pc: int) -> bool:
        """Predict the direction of the branch at ``pc`` (pc unused: GAg)."""
        return self._table.predict(self.history)

    def update(self, pc: int, outcome: bool) -> None:
        """Train the indexed counter, then shift the outcome into history."""
        self._table.update(self.history, outcome)
        self.history = ((self.history << 1) | int(outcome)) & (
            (1 << self.history_bits) - 1
        )
