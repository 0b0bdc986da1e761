"""The McFarling two-component hybrid direction predictor.

Combines the 4K GAg and 1K x 10 PAg with a 4K-entry selector of 2-bit
counters indexed by global history, exactly as the paper's Table 1
describes. The selector counter leans toward the component it names:
high values choose the global component, low values the local one, and
it trains toward whichever component was right when they disagree.

The class owns the three counter tables and both history registers as
plain lists and ints, so :meth:`~HybridPredictor.predict` and
:meth:`~HybridPredictor.update` each run in one frame (they run for
every conditional branch every engine predicts or commits), with the
outcomes of :class:`~repro.bpred.gag.GAgPredictor` and
:class:`~repro.bpred.pag.PAgPredictor` under a selector
:class:`~repro.bpred.twobit.CounterTable`.
"""

from __future__ import annotations

from typing import List

from repro.bpred.twobit import counter_encoding
from repro.isa.opcodes import WORD_SIZE

#: The 2-bit counter every table here holds, as
#: :class:`~repro.bpred.twobit.CounterTable` holds it.
_MAX, _TAKEN_ABOVE, _INITIAL = counter_encoding(2)


class HybridPredictor:
    """GAg/PAg hybrid with a global-history-indexed selector."""

    __slots__ = (
        "history", "_history_mask", "_global",
        "_local_histories", "_local_mask", "_local_history_mask",
        "_pattern", "_selector", "_selector_mask",
    )

    def __init__(
        self,
        gag_entries: int = 4096,
        pag_history_entries: int = 1024,
        pag_history_bits: int = 10,
        selector_entries: int = 4096,
    ) -> None:
        for entries in (gag_entries, pag_history_entries, selector_entries):
            if entries < 1 or entries & (entries - 1):
                raise ValueError("table sizes must be positive powers of two")
        #: GAg: the global history register (architectural: trained at
        #: commit) indexes the global pattern table; it has as many bits
        #: as the table has index bits, so it never needs masking.
        self.history = 0
        self._history_mask = gag_entries - 1
        self._global: List[int] = [_INITIAL] * gag_entries
        #: PAg: per-branch histories (PC-indexed) into a shared table.
        self._local_histories: List[int] = [0] * pag_history_entries
        self._local_mask = pag_history_entries - 1
        self._local_history_mask = (1 << pag_history_bits) - 1
        self._pattern: List[int] = [_INITIAL] * (1 << pag_history_bits)
        self._selector: List[int] = [_INITIAL] * selector_entries
        self._selector_mask = selector_entries - 1

    def predict(self, pc: int) -> bool:
        """Predict taken/not-taken for the conditional branch at ``pc``."""
        history = self.history
        if self._selector[history & self._selector_mask] > _TAKEN_ABOVE:
            return self._global[history] > _TAKEN_ABOVE
        local = self._local_histories[(pc // WORD_SIZE) & self._local_mask]
        return self._pattern[local] > _TAKEN_ABOVE

    def update(self, pc: int, outcome: bool) -> None:
        """Commit-time training of both components and the selector."""
        history = self.history
        global_table = self._global
        global_value = global_table[history]
        histories = self._local_histories
        row = (pc // WORD_SIZE) & self._local_mask
        local = histories[row]
        pattern = self._pattern
        local_value = pattern[local]
        global_pred = global_value > _TAKEN_ABOVE
        if global_pred != (local_value > _TAKEN_ABOVE):
            # Train the selector toward the component that was correct.
            selector = self._selector
            index = history & self._selector_mask
            value = selector[index]
            if global_pred == outcome:
                if value < _MAX:
                    selector[index] = value + 1
            elif value > 0:
                selector[index] = value - 1
        if outcome:
            if local_value < _MAX:
                pattern[local] = local_value + 1
            if global_value < _MAX:
                global_table[history] = global_value + 1
            histories[row] = ((local << 1) | 1) & self._local_history_mask
            self.history = ((history << 1) | 1) & self._history_mask
        else:
            if local_value > 0:
                pattern[local] = local_value - 1
            if global_value > 0:
                global_table[history] = global_value - 1
            histories[row] = (local << 1) & self._local_history_mask
            self.history = (history << 1) & self._history_mask
