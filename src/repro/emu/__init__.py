"""Functional execution: architectural state and a reference emulator.

The same execution core drives three consumers:

* the reference :class:`Emulator` (golden model for tests and workload
  characterisation, and the stream of committed control transfers the
  front-end model, the analysis instruments and trace recording read),
* the single-path pipeline, which executes instructions speculatively at
  dispatch and rewinds an undo log on misprediction recovery, and
* the multipath pipeline, which forks copy-on-write child states.
"""

from repro.emu.machine_state import MachineState, UndoEntry
from repro.emu.exec_core import ExecOutcome, execute
from repro.emu.emulator import Emulator, EmulationStats, CommitRecord

__all__ = [
    "CommitRecord",
    "EmulationStats",
    "Emulator",
    "ExecOutcome",
    "MachineState",
    "UndoEntry",
    "execute",
]
