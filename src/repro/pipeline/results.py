"""Simulation results shared by the single-path and multipath CPUs."""

from __future__ import annotations

from typing import Dict, Optional

from repro.stats import StatGroup


class SimResult:
    """Outcome of one cycle-level simulation run."""

    def __init__(self, group: StatGroup) -> None:
        self.group = group

    # -- headline numbers -------------------------------------------------
    @property
    def cycles(self) -> int:
        return self.group["cycles"].value  # type: ignore[attr-defined]

    @property
    def instructions(self) -> int:
        return self.group["committed"].value  # type: ignore[attr-defined]

    @property
    def ipc(self) -> float:
        cycles = self.cycles
        return self.instructions / cycles if cycles else 0.0

    # -- prediction quality ------------------------------------------------
    def rate(self, name: str) -> Optional[float]:
        if name in self.group:
            return self.group[name].value  # type: ignore[attr-defined]
        return None

    def counter(self, name: str) -> int:
        if name in self.group:
            return self.group[name].value  # type: ignore[attr-defined]
        return 0

    @property
    def return_accuracy(self) -> Optional[float]:
        return self.rate("return_accuracy")

    @property
    def cond_accuracy(self) -> Optional[float]:
        return self.rate("cond_accuracy")

    @property
    def indirect_accuracy(self) -> Optional[float]:
        return self.rate("indirect_accuracy")

    def as_dict(self) -> Dict[str, object]:
        """Flatten headline stats for reporting."""
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "ipc": self.ipc,
            "cond_accuracy": self.cond_accuracy,
            "return_accuracy": self.return_accuracy,
            "indirect_accuracy": self.indirect_accuracy,
            "mispredictions": self.counter("mispredictions"),
            "squashed": self.counter("squashed"),
            "ras_overflows": self.counter("ras_overflows"),
            "ras_underflows": self.counter("ras_underflows"),
        }

    def __repr__(self) -> str:
        return (
            f"SimResult(instructions={self.instructions}, cycles={self.cycles}, "
            f"ipc={self.ipc:.3f})"
        )
