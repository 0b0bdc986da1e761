"""The fast front-end simulator, for one program or several SMT threads."""

from __future__ import annotations

import dataclasses
import heapq
from itertools import repeat
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.bpred.predictor import FrontEndPredictor, new_stack
from repro.config.machine import BranchPredictorConfig
from repro.emu.emulator import Commit, Emulator
from repro.errors import ConfigError
from repro.isa.opcodes import ControlClass, WORD_SIZE
from repro.isa.program import Program
from repro.stats import StatGroup

#: Cycles per instruction when prediction is perfect (the estimate).
BASE_CPI = 0.75
#: Cycles charged per misprediction (the estimate).
BRANCH_PENALTY = 8.0
#: Committed instructions each thread runs per round-robin turn.
INTERLEAVE_QUANTUM = 4


@dataclasses.dataclass
class ThreadResult:
    """Per-thread prediction outcome."""

    thread: int
    instructions: int = 0
    returns: int = 0
    return_hits: int = 0
    mispredictions: int = 0

    @property
    def return_accuracy(self) -> Optional[float]:
        if self.returns == 0:
            return None
        return self.return_hits / self.returns


class FastSimResult:
    """Prediction-quality summary plus a first-order cycle estimate.

    The counters and rates sum over every thread; :attr:`threads` holds
    the per-thread breakdown.
    """

    def __init__(self, group: StatGroup, threads: List[ThreadResult]) -> None:
        self.group = group
        self.threads = threads

    @property
    def instructions(self) -> int:
        return self.group["instructions"].value  # type: ignore[attr-defined]

    @property
    def mispredictions(self) -> int:
        return self.group["mispredictions"].value  # type: ignore[attr-defined]

    @property
    def return_accuracy(self) -> Optional[float]:
        return self.group["return_accuracy"].value  # type: ignore[attr-defined]

    @property
    def cond_accuracy(self) -> Optional[float]:
        return self.group["cond_accuracy"].value  # type: ignore[attr-defined]

    @property
    def estimated_cycles(self) -> float:
        """Additive penalty model: base CPI plus a fixed charge per
        misprediction. Crude by design — shapes, not absolutes."""
        return self.instructions * BASE_CPI + self.mispredictions * BRANCH_PENALTY

    @property
    def estimated_ipc(self) -> float:
        cycles = self.estimated_cycles
        return self.instructions / cycles if cycles else 0.0

    def counter(self, name: str) -> int:
        if name in self.group:
            return self.group[name].value  # type: ignore[attr-defined]
        return 0

    def __repr__(self) -> str:
        return (
            f"FastSimResult(threads={len(self.threads)}, "
            f"n={self.instructions}, mispred={self.mispredictions}, "
            f"est_ipc={self.estimated_ipc:.3f})"
        )


def _issue_order(streams: Sequence[Iterator[Commit]],
                 ) -> Iterable[Tuple[int, Commit]]:
    """``(thread, control transfer)`` in the order a round-robin front
    end sees them: each thread commits :data:`INTERLEAVE_QUANTUM`
    instructions per turn, so transfers replay in
    ``(index // INTERLEAVE_QUANTUM, thread)`` order."""
    if len(streams) == 1:
        return zip(repeat(0), streams[0])
    return heapq.merge(
        *(zip(repeat(thread), stream) for thread, stream in enumerate(streams)),
        key=lambda tagged: (tagged[1][4] // INTERLEAVE_QUANTUM, tagged[0]))


class FastFrontEndSim:
    """Committed-path replay + bounded wrong-path walks, over one or more
    hardware threads sharing one front end.

    Each thread's committed control transfers come from its own
    :class:`~repro.emu.emulator.Emulator`. The direction predictor, the
    BTB and the shadow checkpoint slots are shared, as in a real SMT
    front end. With one program this is the ``"frontend"`` engine; with
    several it is the SMT model of ablation A9.

    Args:
        programs: the workload, or one program per thread.
        predictor_config: front-end configuration (Table 1 subset).
        per_thread_stacks: give every thread its own return-address
            stack (the default) or make all threads share one. On a
            shared stack, interleaved calls and returns from unrelated
            threads shred the LIFO order, and repairing one thread's
            checkpoint rolls back the pushes others made in between —
            why Hily & Seznec call per-thread stacks a necessity. One
            thread behaves the same either way.
        wrong_path_instructions: how many instructions the wrong path
            fetches before the misprediction resolves. Approximates
            (resolution latency x fetch width) of the cycle model.
        max_instructions: the watchdog, per thread.
    """

    def __init__(
        self,
        programs: Union[Program, Sequence[Program]],
        predictor_config: Optional[BranchPredictorConfig] = None,
        per_thread_stacks: bool = True,
        wrong_path_instructions: int = 16,
        max_instructions: int = 50_000_000,
    ) -> None:
        self.programs = ([programs] if isinstance(programs, Program)
                         else list(programs))
        if not self.programs:
            raise ConfigError("the front-end model needs at least one thread")
        if wrong_path_instructions < 0:
            raise ValueError("wrong_path_instructions must be >= 0")
        config = predictor_config or BranchPredictorConfig()
        self.frontend = FrontEndPredictor(config)
        #: The stack each thread predicts with (thread 0: the facade's).
        self.stacks = [self.frontend.ras] + [
            new_stack(config) if per_thread_stacks else self.frontend.ras
            for _ in self.programs[1:]]
        self.wrong_path_instructions = wrong_path_instructions
        self.max_instructions = max_instructions

        #: Thread 0's architectural state after :meth:`run` (None before).
        self.final_state = None
        self.stats = StatGroup("fastsim")
        self._instructions = self.stats.counter("instructions")
        self._mispredictions = self.stats.counter("mispredictions")
        self._wrong_path_fetched = self.stats.counter("wrong_path_fetched")
        self._wrong_path_calls = self.stats.counter(
            "wrong_path_calls", "RAS pushes performed on wrong paths")
        self._wrong_path_returns = self.stats.counter(
            "wrong_path_returns", "RAS pops performed on wrong paths")

    def _walk_wrong_path(self, thread: int, start_pc: int) -> None:
        """Fetch down the predicted-but-wrong path, corrupting the RAS.

        Control flow follows *predictions* (this is a pure front-end
        walk — no functional execution, exactly what a fetch engine does
        before the offending branch resolves).
        """
        program = self.programs[thread]
        ras = self.stacks[thread]
        frontend = self.frontend
        pc = start_pc
        pending = []
        for _ in range(self.wrong_path_instructions):
            if not program.in_text(pc):
                break
            inst = program.fetch(pc)
            self._wrong_path_fetched.increment()
            if inst.opcode.value == "halt":
                break
            if inst.is_control:
                prediction = frontend.predict(pc, inst, ras)
                pending.append(prediction)
                if inst.control.is_call:
                    self._wrong_path_calls.increment()
                elif inst.control is ControlClass.RETURN:
                    self._wrong_path_returns.increment()
                pc = prediction.target
            else:
                pc += WORD_SIZE
        # The walk's own shadow slots die with the squash.
        for prediction in pending:
            frontend.release(prediction)

    def run(self) -> FastSimResult:
        """Run every thread to completion (or the instruction cap)."""
        frontend = self.frontend
        stacks = self.stacks
        emulators = [Emulator(program, self.max_instructions)
                     for program in self.programs]
        threads = [ThreadResult(index) for index in range(len(emulators))]
        streams = [emulator.control_transfers() for emulator in emulators]
        for thread, (pc, inst, next_pc, taken, _) in _issue_order(streams):
            counts = threads[thread]
            prediction = frontend.predict(pc, inst, stacks[thread])
            hit = prediction.target == next_pc
            if inst.control is ControlClass.RETURN:
                counts.returns += 1
                counts.return_hits += hit
            if not hit:
                counts.mispredictions += 1
                self._walk_wrong_path(thread, prediction.target)
                # On a shared stack this also rolls back the other
                # threads' interleaved pushes: the SMT hazard.
                frontend.repair(prediction)
            # Resolution == commit in this model: train immediately.
            frontend.train_commit(pc, inst, taken, next_pc, prediction)
            frontend.release(prediction)
        for counts, emulator in zip(threads, emulators):
            counts.instructions = emulator.instructions
        self.final_state = emulators[0].state
        return self._finalize(threads)

    def _finalize(self, threads: List[ThreadResult]) -> FastSimResult:
        group = self.stats
        self._instructions.increment(sum(t.instructions for t in threads))
        self._mispredictions.increment(sum(t.mispredictions for t in threads))
        for name in ("return_accuracy", "cond_accuracy", "indirect_accuracy"):
            source = self.frontend.stats[name]
            group.rate(name).record_many(source.hits, source.events)
        stacks = [ras for ras in dict.fromkeys(self.stacks) if ras is not None]
        if stacks:
            for name in ("overflows", "underflows"):
                group.counter(f"ras_{name}").increment(
                    sum(ras.stats[name].value for ras in stacks))
        return FastSimResult(group, threads)
