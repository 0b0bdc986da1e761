"""The branch target buffer.

Decoupled from the direction predictor as in Calder & Grunwald: entries
are allocated only for *taken* control transfers, so the (smaller) BTB
is not wasted on never-taken branches. Set-associative with true-LRU
replacement inside each set.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.isa.opcodes import WORD_SIZE
from repro.stats import StatGroup


class BranchTargetBuffer:
    """A sets x assoc BTB mapping branch PC -> last-seen target."""

    def __init__(self, sets: int = 512, assoc: int = 4) -> None:
        if sets < 1 or sets & (sets - 1):
            raise ValueError("sets must be a positive power of two")
        if assoc < 1:
            raise ValueError("assoc must be >= 1")
        self.sets = sets
        self.assoc = assoc
        self._set_mask = sets - 1
        # Each set: list of (tag, target), most-recently-used last.
        self._ways: List[List[Tuple[int, int]]] = [[] for _ in range(sets)]
        self.stats = StatGroup("btb")
        self._lookups = self.stats.counter("lookups")
        self._hits = self.stats.counter("hits")

    def lookup(self, pc: int) -> Optional[int]:
        """Return the predicted target for ``pc``, or None on a miss.

        A hit refreshes the entry's LRU position (a lookup models a
        fetch-stage probe of the BTB).
        """
        self._lookups.value += 1
        ways = self._ways[(pc // WORD_SIZE) & self._set_mask]
        if ways:
            tag, target = ways[-1]
            if tag == pc:
                # MRU hit: loops and repeated returns re-probe the same
                # entry; skip the scan-and-rotate (a no-op for the MRU).
                self._hits.value += 1
                return target
        for position, (tag, target) in enumerate(ways):
            if tag == pc:
                if position != len(ways) - 1:
                    ways.append(ways.pop(position))
                self._hits.value += 1
                return target
        return None

    def update(self, pc: int, target: int, taken: bool) -> None:
        """Commit-time training: install/refresh ``pc -> target``.

        Not-taken branches never allocate (decoupled organisation), but
        a not-taken outcome for an existing entry leaves it in place —
        the entry still records the taken-path target.
        """
        ways = self._ways[(pc // WORD_SIZE) & self._set_mask]
        for position, (tag, _) in enumerate(ways):
            if tag == pc:
                if taken:
                    ways.pop(position)
                    ways.append((pc, target))
                return
        if not taken:
            return
        if len(ways) >= self.assoc:
            ways.pop(0)  # evict true-LRU
        ways.append((pc, target))

    @property
    def hit_rate(self) -> Optional[float]:
        if self._lookups.value == 0:
            return None
        return self._hits.value / self._lookups.value

    def occupancy(self) -> int:
        """Number of valid entries (for tests and diagnostics)."""
        return sum(len(ways) for ways in self._ways)
