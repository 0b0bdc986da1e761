"""The single-path out-of-order CPU model.

Pipeline stages are evaluated back-to-front each cycle (commit,
writeback, issue, dispatch, fetch) so that results flow between stages
with realistic one-cycle boundaries.

Modelling notes (and their Table 1 / Section 3 counterparts):

* Fetch follows the *predicted* stream, fetches through not-taken
  branches and stops at taken ones. RAS pushes/pops happen here,
  speculatively — including on wrong paths.
* Dispatch executes instructions functionally against the live machine
  state, recording per-instruction undo logs; recovery rewinds them.
  This is the execution-driven equivalent of sim-outorder's
  dispatch-time execution.
* Branches resolve at writeback: the RAS is repaired from the branch's
  checkpoint (per the configured mechanism), younger instructions are
  squashed and fetch redirects.
* The branch predictor and BTB train at commit, as the paper notes
  SimpleScalar does.
* Memory disambiguation is perfect (addresses are known at dispatch),
  matching the paper's LSQ policy of letting stores pass only known
  non-conflicting references.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.bpred.predictor import FrontEndPredictor, Prediction
from repro.caches.hierarchy import MemoryHierarchy
from repro.config.machine import MachineConfig
from repro.emu.exec_core import execute
from repro.emu.machine_state import MachineState
from repro.errors import SimulationError
from repro.isa.opcodes import ControlClass, Opcode, WORD_SIZE
from repro.isa.program import Program
from repro.pipeline.inflight import InflightInstruction, exec_latency, source_regs
from repro.pipeline.results import SimResult
from repro.stats import StatGroup

#: Cycles without a commit before the simulator declares itself wedged.
_DEADLOCK_LIMIT = 20_000


class _FetchedInstruction:
    """One IFQ slot: fetched, predicted, waiting to dispatch."""

    __slots__ = ("pc", "inst", "prediction", "ready_cycle", "fetch_cycle")

    def __init__(self, pc, inst, prediction, ready_cycle, fetch_cycle) -> None:
        self.pc = pc
        self.inst = inst
        self.prediction = prediction
        self.ready_cycle = ready_cycle
        self.fetch_cycle = fetch_cycle


class SinglePathCPU:
    """Cycle-level simulation of one program on the Table 1 machine.

    The *reference* single-path engine: stages run back-to-front each
    cycle as readable methods, in-flight instructions are objects, and
    wrong paths execute for real under undo logs
    (docs/architecture.md §3). Written for clarity over speed — the
    columnar twin :class:`repro.fastsim.cycle.ColumnarCycleCPU` must
    stay bit-identical to this machine (enforced by
    :mod:`repro.fastsim.parity`), so behavioural changes belong here
    first, mirrored there, never in the twin alone.
    """

    def __init__(
        self,
        program: Program,
        config: Optional[MachineConfig] = None,
        max_instructions: Optional[int] = None,
        max_cycles: Optional[int] = None,
        commit_hook: Optional[Callable[[InflightInstruction], None]] = None,
    ) -> None:
        self.program = program
        self.config = config or MachineConfig()
        self.max_instructions = max_instructions
        self.max_cycles = max_cycles
        self.commit_hook = commit_hook

        self.state = MachineState(pc=program.entry, initial_memory=program.data)
        self.frontend = FrontEndPredictor(self.config.predictor)
        self.memory = MemoryHierarchy(self.config.memory)

        core = self.config.core
        self._ifq: Deque[_FetchedInstruction] = deque()
        self._ruu: Deque[InflightInstruction] = deque()
        self._lsq_count = 0
        self._last_writer: Dict[int, InflightInstruction] = {}
        self._fetch_pc = program.entry
        self._fetch_stalled_until = 0
        self._fetch_halted = False
        self._last_fetch_line: Optional[int] = None
        self._fetch_line_shift = (
            self.config.memory.l1i.line_bytes.bit_length() - 1
        )
        self._seq = 0
        self.cycle = 0
        self.done = False
        self._ifq_size = core.ifq_size
        self._ruu_size = core.ruu_size
        self._lsq_size = core.lsq_size

        self.stats = StatGroup("cpu")
        self._cycles_stat = self.stats.counter("cycles")
        self._committed = self.stats.counter("committed")
        self._fetched = self.stats.counter("fetched")
        self._dispatched = self.stats.counter("dispatched")
        self._squashed = self.stats.counter("squashed", "squashed wrong-path instructions")
        self._mispredictions = self.stats.counter("mispredictions")
        self._mispred_cond = self.stats.counter("mispredictions_cond")
        self._mispred_return = self.stats.counter("mispredictions_return")
        self._mispred_indirect = self.stats.counter("mispredictions_indirect")
        # Zero-commit cycles, attributed to the oldest obstacle. These
        # are diagnostics (where did the cycles go?), not used by the
        # timing model itself.
        self._stall_frontend = self.stats.counter(
            "stall_frontend", "no commit: window empty (fetch/redirect)")
        self._stall_memory = self.stats.counter(
            "stall_memory", "no commit: head is an in-flight memory op")
        self._stall_execute = self.stats.counter(
            "stall_execute", "no commit: head issued, still executing")
        # Never charged: the head's producers are older than the head,
        # so they have committed (see _attribute_stall). Kept, at 0,
        # because job counters and the benchmark digests carry it.
        self.stats.counter(
            "stall_dependency",
            "always 0: the RUU head's producers have all committed")
        self._stall_issue = self.stats.counter(
            "stall_issue", "no commit: head ready but not yet issued")

    # ------------------------------------------------------------------
    # Stages (called back-to-front each cycle).

    def _commit(self) -> None:
        budget = self.config.core.commit_width
        ruu = self._ruu
        while budget and ruu and ruu[0].completed:
            entry = ruu.popleft()
            inst = entry.inst
            if inst.is_control:
                self.frontend.train_commit(
                    entry.pc, inst, entry.actual_taken,
                    entry.actual_next_pc, entry.prediction,
                )
            if entry.dest is not None and self._last_writer.get(entry.dest) is entry:
                del self._last_writer[entry.dest]
            if entry.is_load or entry.is_store:
                self._lsq_count -= 1
            entry.undo.clear()
            entry.commit_cycle = self.cycle
            self._committed.increment()
            if self.commit_hook is not None:
                self.commit_hook(entry)
            if entry.outcome.is_halt:
                self.done = True
                return
            budget -= 1

    def _writeback(self) -> None:
        cycle = self.cycle
        # Snapshot first: a recovery mutates the RUU mid-walk.
        resolvable = [
            entry for entry in self._ruu
            if entry.issued and not entry.completed
            and entry.complete_cycle <= cycle
        ]
        for entry in resolvable:  # oldest-first: recoveries must be ordered
            entry.completed = True
            prediction = entry.prediction
            if prediction is None:
                continue
            if entry.mispredicted:
                self._record_misprediction(entry)
                self.frontend.repair(prediction)
                self.frontend.release(prediction)
                self._recover(entry)
                # Everything younger was just squashed; stop resolving.
                break
            self.frontend.release(prediction)

    def _record_misprediction(self, entry: InflightInstruction) -> None:
        self._mispredictions.increment()
        control = entry.inst.control
        if control is ControlClass.COND_BRANCH:
            self._mispred_cond.increment()
        elif control is ControlClass.RETURN:
            self._mispred_return.increment()
        else:
            self._mispred_indirect.increment()

    def _recover(self, branch: InflightInstruction) -> None:
        """Squash younger than ``branch`` and redirect fetch.

        The RAS has already been repaired from the branch's checkpoint
        by the caller; this routine unwinds the speculative machine
        state (undo logs, youngest first) and resets the front end.
        """
        for fetched in self._ifq:
            if fetched.prediction is not None:
                self.frontend.release(fetched.prediction)
        self._ifq.clear()
        ruu = self._ruu
        while ruu and ruu[-1].seq > branch.seq:
            entry = ruu.pop()
            self.state.rewind(entry.undo)
            entry.squashed = True
            if entry.prediction is not None:
                self.frontend.release(entry.prediction)
            if entry.is_load or entry.is_store:
                self._lsq_count -= 1
            self._squashed.increment()
        self._last_writer = {
            entry.dest: entry for entry in ruu if entry.dest is not None
        }
        self._fetch_pc = branch.actual_next_pc
        self._fetch_halted = False
        self._fetch_stalled_until = self.cycle + 1
        self._last_fetch_line = None

    def _older_store_conflict(
        self, load: InflightInstruction
    ) -> Optional[InflightInstruction]:
        """Nearest older store to the same address, if any."""
        found_load = False
        nearest = None
        for entry in self._ruu:
            if entry is load:
                found_load = True
                break
            if entry.is_store and entry.mem_address == load.mem_address:
                nearest = entry
        return nearest if found_load else nearest

    def _issue(self) -> None:
        core = self.config.core
        budget = core.issue_width
        alus = core.int_alus
        muls = core.int_multipliers
        ports = core.memory_ports
        cycle = self.cycle
        for entry in self._ruu:
            if budget == 0:
                break
            if entry.issued or entry.dispatched_cycle >= cycle:
                continue
            if not entry.deps_completed():
                continue
            inst = entry.inst
            if entry.is_load:
                if ports == 0:
                    continue
                store = self._older_store_conflict(entry)
                if store is not None and not store.completed:
                    continue  # wait for the producing store
                if store is not None:
                    latency = 1  # store-to-load forwarding inside the LSQ
                else:
                    latency = self.memory.access_data(entry.mem_address)
                ports -= 1
            elif entry.is_store:
                if ports == 0:
                    continue
                self.memory.access_data(entry.mem_address, is_store=True)
                latency = 1
                ports -= 1
            elif inst.opcode is Opcode.MUL:
                if muls == 0:
                    continue
                muls -= 1
                latency = exec_latency(inst)
            else:
                if alus == 0:
                    continue
                alus -= 1
                latency = exec_latency(inst)
            entry.issued = True
            entry.issue_cycle = cycle
            entry.complete_cycle = cycle + latency
            budget -= 1

    def _dispatch(self) -> None:
        budget = self.config.core.decode_width
        cycle = self.cycle
        ifq = self._ifq
        while budget and ifq and ifq[0].ready_cycle <= cycle:
            if len(self._ruu) >= self._ruu_size:
                break
            fetched = ifq[0]
            inst = fetched.inst
            if inst.is_memory and self._lsq_count >= self._lsq_size:
                break
            ifq.popleft()
            self._seq += 1
            undo: List = []
            outcome = execute(inst, fetched.pc, self.state, undo)
            entry = InflightInstruction(
                self._seq, fetched.pc, inst, outcome,
                fetched.prediction, cycle,
            )
            entry.undo = undo
            entry.fetch_cycle = fetched.fetch_cycle
            prediction = fetched.prediction
            if prediction is not None and not outcome.is_halt:
                entry.mispredicted = prediction.target != outcome.next_pc
            for reg in source_regs(inst):
                writer = self._last_writer.get(reg)
                if writer is not None and not writer.completed:
                    entry.deps.append(writer)
            if entry.dest is not None:
                self._last_writer[entry.dest] = entry
            if inst.is_memory:
                self._lsq_count += 1
            self._ruu.append(entry)
            self._dispatched.increment()
            budget -= 1

    def _fetch(self) -> None:
        if self._fetch_halted or self.cycle < self._fetch_stalled_until:
            return
        core = self.config.core
        budget = core.fetch_width
        program = self.program
        while budget and len(self._ifq) < self._ifq_size:
            pc = self._fetch_pc
            if not program.in_text(pc):
                # Only a wrong path can wander out of the text segment;
                # fetch idles until the mispredicted branch resolves.
                self._fetch_halted = True
                return
            line = pc >> self._fetch_line_shift
            if line != self._last_fetch_line:
                latency = self.memory.fetch_instruction(pc)
                self._last_fetch_line = line
                if latency > self.config.memory.l1i.hit_latency:
                    # I-cache miss: the line arrives `latency` cycles on.
                    self._fetch_stalled_until = self.cycle + latency
                    return
            inst = program.fetch(pc)
            prediction: Optional[Prediction] = None
            next_pc = pc + WORD_SIZE
            if inst.is_control:
                prediction = self.frontend.predict(pc, inst)
                next_pc = prediction.target
            self._ifq.append(_FetchedInstruction(
                pc, inst, prediction,
                self.cycle + 1 + core.frontend_depth,
                self.cycle,
            ))
            self._fetched.increment()
            self._fetch_pc = next_pc
            budget -= 1
            if inst.opcode is Opcode.HALT:
                self._fetch_halted = True
                return
            if inst.is_control and next_pc != pc + WORD_SIZE:
                return  # stop fetching at a (predicted-)taken transfer

    # ------------------------------------------------------------------
    # Driver.

    def _attribute_stall(self) -> None:
        """Blame this zero-commit cycle on the oldest obstacle.

        Never on a dependency: every producer of the RUU head is older
        than the head, so it has already committed, and a head that has
        not issued waits on issue resources alone. ``stall_dependency``
        stays in the counter set, always 0.
        """
        if not self._ruu:
            self._stall_frontend.increment()
            return
        head = self._ruu[0]
        if head.issued:
            if head.is_load or head.is_store:
                self._stall_memory.increment()
            else:
                self._stall_execute.increment()
        else:
            self._stall_issue.increment()

    def step(self) -> None:
        """Advance the machine by one cycle."""
        committed_before = self._committed.value
        self._commit()
        if not self.done:
            if self._committed.value == committed_before:
                self._attribute_stall()
            self._writeback()
            self._issue()
            self._dispatch()
            self._fetch()
        self.cycle += 1

    def run(self) -> SimResult:
        """Simulate until HALT commits (or a configured limit)."""
        last_commit_cycle = 0
        last_committed = 0
        while not self.done:
            if self.max_cycles is not None and self.cycle >= self.max_cycles:
                break
            if (self.max_instructions is not None
                    and self._committed.value >= self.max_instructions):
                break
            self.step()
            if self._committed.value != last_committed:
                last_committed = self._committed.value
                last_commit_cycle = self.cycle
            elif self.cycle - last_commit_cycle > _DEADLOCK_LIMIT:
                raise SimulationError(
                    f"no commit for {_DEADLOCK_LIMIT} cycles at cycle "
                    f"{self.cycle} (pc={self._fetch_pc}, "
                    f"ruu={len(self._ruu)}, ifq={len(self._ifq)})"
                )
        return self._finalize()

    def _finalize(self) -> SimResult:
        self._cycles_stat.increment(self.cycle - self._cycles_stat.value)
        group = self.stats
        # Mirror the front end's accuracy rates and RAS counters into
        # the result group so one object carries the whole story.
        for name in ("return_accuracy", "cond_accuracy", "indirect_accuracy"):
            source = self.frontend.stats[name]
            group.rate(name).record_many(source.hits, source.events)
        group.counter("returns_from_btb").increment(
            self.frontend.stats["returns_from_btb"].value)
        ras = self.frontend.ras
        if ras is not None:
            group.counter("ras_pushes").increment(ras.stats["pushes"].value)
            group.counter("ras_pops").increment(ras.stats["pops"].value)
            group.counter("ras_overflows").increment(ras.stats["overflows"].value)
            group.counter("ras_underflows").increment(ras.stats["underflows"].value)
        group.counter("l1i_misses").increment(self.memory.l1i.stats["misses"].value)
        group.counter("l1d_misses").increment(self.memory.l1d.stats["misses"].value)
        return SimResult(group)
