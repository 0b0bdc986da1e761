"""Saturating-counter primitives shared by every direction predictor."""

from __future__ import annotations

from typing import List, Tuple


def counter_encoding(bits: int) -> Tuple[int, int, int]:
    """``(maximum, threshold, initial)`` of an n-bit saturating counter.

    It saturates at ``maximum``, predicts taken while its value is above
    ``threshold`` and powers on at ``initial`` (weakly taken). Every
    counter of every direction predictor uses this encoding; the hybrid
    reads and trains its 2-bit tables with these values directly.
    """
    maximum = (1 << bits) - 1
    return maximum, maximum // 2, (maximum + 1) // 2


class SaturatingCounter:
    """An n-bit saturating up/down counter (default: the classic 2-bit)."""

    __slots__ = ("value", "maximum", "_threshold")

    def __init__(self, bits: int = 2, initial: int = None) -> None:  # type: ignore[assignment]
        if bits < 1:
            raise ValueError("counter needs at least one bit")
        self.maximum, self._threshold, power_on = counter_encoding(bits)
        self.value = power_on if initial is None else initial
        if not 0 <= self.value <= self.maximum:
            raise ValueError(f"initial value {self.value} out of range")

    @property
    def taken(self) -> bool:
        """The prediction this counter currently encodes."""
        return self.value > self._threshold

    def update(self, outcome: bool) -> None:
        if outcome:
            if self.value < self.maximum:
                self.value += 1
        elif self.value > 0:
            self.value -= 1


class CounterTable:
    """A direct-mapped table of n-bit saturating counters.

    Stored as a flat list of ints (not counter objects) because these
    tables sit on the per-instruction hot path of every simulation.
    """

    __slots__ = ("bits", "maximum", "entries", "_table", "_threshold")

    def __init__(self, entries: int, bits: int = 2) -> None:
        if entries < 1 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        if bits < 1:
            raise ValueError("bits must be >= 1")
        self.bits = bits
        self.maximum, self._threshold, power_on = counter_encoding(bits)
        self.entries = entries
        self._table: List[int] = [power_on] * entries

    def predict(self, key: int) -> bool:
        """True when the counter at ``key`` predicts taken."""
        return self._table[key & (self.entries - 1)] > self._threshold

    def value(self, key: int) -> int:
        return self._table[key & (self.entries - 1)]

    def update(self, key: int, outcome: bool) -> None:
        index = key & (self.entries - 1)
        value = self._table[index]
        if outcome:
            if value < self.maximum:
                self._table[index] = value + 1
        elif value > 0:
            self._table[index] = value - 1
