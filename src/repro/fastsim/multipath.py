"""Fast multipath cycle-level engine.

A drop-in counterpart of :class:`repro.multipath.cpu.MultipathCPU`
producing bit-identical counters, rebuilt around the levers of the
columnar single-path engine (:mod:`repro.fastsim.cycle`), plus an
alive-path list of its own:

* **Hoisted decode.** All static per-instruction facts and the
  execution semantics come from the per-program
  :class:`~repro.fastsim.decode.DecodeTable` — the multipath exec
  functions (``exec_fns_mp``) capture stores instead of writing memory
  and read loads through the store-forwarding path, exactly like the
  reference ``_PathState`` adapter, with no per-dispatch decode work.
* **Completion map and wakeup**, as in :mod:`repro.fastsim.cycle`
  (SimpleScalar ``sim-outorder``'s event queue and dependence chains).
  The reference scans the whole RUU every cycle for issue and
  writeback candidates and walks it backwards for every load. Here
  each dispatched entry counts its in-flight producers and joins their
  consumer lists; issue puts the entry in a map keyed by its completion
  cycle. Writeback pops the entries due this cycle and wakes every
  consumer whose count reaches zero. Issue walks only the entries whose
  producers have all completed, in program order, so an entry waiting
  on an operand is never re-tested. In-flight stores sit in a
  per-address forwarding index.
* **One alive-path list.** Dispatch, fetch, the fork decision and the
  fast-forward read the alive paths, in ``_paths`` order, from one
  list that is rebuilt only when a path's liveness changes (a fork, a
  kill, a lost fork resolution or a recovery), instead of filtering
  every unpruned path several times a cycle.
* **Quiescent-cycle fast-forward.** A cycle in which no stage acted
  cannot differ from the next one until some scheduled event (an
  in-flight completion, an IFQ head becoming ready, an I-cache fill)
  arrives, so the engine jumps straight to the earliest such event.
  The fetch round-robin offset advances by the skipped cycle count and
  the path-prune cadence (every 512 cycles) is preserved, keeping the
  shared-bandwidth interleaving and end-of-run path census — and hence
  every counter — bit-identical.
* **Unchanged cold paths.** Forking, selective squash, fork
  resolution, writer-map rebuilds and path pruning replicate the
  reference logic structurally: they are rare, subtle, and not worth
  a representation change.

Path state stays in :class:`~repro.multipath.path.PathContext` objects
(the ancestry/visibility machinery is shared with the reference). Per
instruction the engine allocates as little as the model needs:

* an IFQ row is a plain tuple ``(pc, ii, prediction, ready_cycle,
  forked_child)``; the fork decision is taken before the row is built,
  and only conditional branches are offered to it;
* an RUU row is a slim ``__slots__`` :class:`_Entry` (instead of
  :class:`~repro.pipeline.inflight.InflightInstruction`), built in one
  call. It holds the count of its in-flight producers, not the
  producers, and its ``undo`` is the log the exec function just wrote.

Issue runs before dispatch in every cycle, so an entry is never issued
in the cycle it dispatched; the reference's dispatch-cycle hold can
never fire here, and the entry does not record its dispatch cycle.

The differential harness in :mod:`repro.fastsim.parity` checks this
engine against the reference across every repair mechanism, stack
size, and stack organisation.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from heapq import heappop, heappush
from operator import attrgetter
from typing import Deque, Dict, List, Optional, Tuple

from repro.bpred.confidence import JrsConfidenceEstimator
from repro.bpred.predictor import FrontEndPredictor
from repro.caches.hierarchy import MemoryHierarchy
from repro.config.machine import MachineConfig
from repro.emu.machine_state import MASK64
from repro.errors import SimulationError
from repro.fastsim.decode import CONTROL_CODE, decode_table
from repro.isa.opcodes import ControlClass, WORD_SIZE
from repro.isa.program import Program
from repro.multipath.path import PathContext
from repro.multipath.stacks import StackOrganizer
from repro.pipeline.results import SimResult
from repro.stats import StatGroup

_DEADLOCK_LIMIT = 20_000

#: Path-prune cadence, in cycles (must match MultipathCPU.run).
_PRUNE_PERIOD = 512

_COND = CONTROL_CODE[ControlClass.COND_BRANCH]


class _Entry:
    """One RUU row (the fast engine's InflightInstruction).

    ``wait`` and ``consumers`` are the two ends of the dependence
    wakeup: how many in-flight producers the entry still waits on, and
    the entries waiting on it.
    """

    __slots__ = (
        "seq", "pc", "ii", "next_pc", "taken", "prediction", "undo",
        "wait", "consumers", "dest", "mem_address", "is_store",
        "store_value", "mispredicted", "path", "fork_child",
        "completed", "squashed",
    )

    def __init__(self, seq, pc, ii, next_pc, taken, prediction, undo,
                 dest, mem_address, is_store, store_value, mispredicted,
                 path, fork_child):
        self.seq = seq
        self.pc = pc
        self.ii = ii
        self.next_pc = next_pc
        self.taken = taken
        self.prediction = prediction
        #: The exec function's undo log (register records only).
        self.undo = undo
        #: In-flight producers of the sources not yet completed, counted
        #: at dispatch (a register read twice counts its writer twice).
        self.wait = 0
        #: Entries whose ``wait`` counts this one; None until one joins.
        self.consumers: Optional[List[_Entry]] = None
        #: Destination register, -1 for none (the decode column's code).
        self.dest = dest
        self.mem_address: Optional[int] = mem_address
        self.is_store = is_store
        self.store_value: Optional[int] = store_value
        self.mispredicted = mispredicted
        self.path = path
        self.fork_child: Optional[PathContext] = fork_child
        self.completed = False
        self.squashed = False


#: Writeback resolves completions in program order.
_by_seq = attrgetter("seq")


class FastMultipathCPU:
    """Work-list re-expression of the multipath machine.

    Same constructor shape as :class:`~repro.multipath.cpu.MultipathCPU`
    minus the commit hook (which needs per-instruction objects), same
    :class:`~repro.pipeline.results.SimResult`, bit-identical counters.
    """

    def __init__(
        self,
        program: Program,
        config: Optional[MachineConfig] = None,
        max_instructions: Optional[int] = None,
        max_cycles: Optional[int] = None,
    ) -> None:
        self.program = program
        self.config = config or MachineConfig()
        self.max_instructions = max_instructions
        self.max_cycles = max_cycles

        predictor_config = self.config.predictor
        # The facade must not own a stack of its own: stacks are handed
        # out by the organizer (shared or per path) and passed per call.
        facade_config = dataclasses.replace(predictor_config,
                                            ras_enabled=False)
        self.frontend = FrontEndPredictor(facade_config)
        self.organizer = StackOrganizer(
            self.config.multipath.stack_organization, predictor_config)
        self.confidence = JrsConfidenceEstimator(
            self.config.multipath.confidence_entries,
            self.config.multipath.confidence_threshold,
            self.config.multipath.confidence_max,
        )
        self.memory = MemoryHierarchy(self.config.memory)
        self.decode = decode_table(program)

        #: Architectural memory: committed stores only.
        self._arch_memory: Dict[int, int] = dict(program.data)
        root = PathContext(
            0, program.entry, [0] * 32, parent=None,
            ras=self.organizer.root_stack(),
        )
        self._paths: List[PathContext] = [root]
        #: The alive members of ``_paths``, in its order (see _relist).
        self._alive: List[PathContext] = [root]
        self._next_path_id = 1
        self._ruu: Deque[_Entry] = deque()
        self.cycle = 0
        self.done = False
        self.final_regs: Optional[List[int]] = None
        self._rr_offset = 0
        self._fetch_line_shift = (
            self.config.memory.l1i.line_bytes.bit_length() - 1)

        #: address -> in-flight stores to it, oldest first (seq order).
        self._store_map: Dict[int, List[_Entry]] = {}
        #: Path bound for the duration of one exec-function call.
        self._load_path: Optional[PathContext] = None

        # Raw counters; promoted into a StatGroup at _finalize.
        self._committed = 0
        self._fetched = 0
        self._dispatched = 0
        self._squashed = 0
        self._bubbles = 0
        self._forks = 0
        self._fork_saved = 0
        self._mispredictions = 0
        self._mispred_return = 0

    # ------------------------------------------------------------------
    # Helpers.

    def _load(self, address: int) -> int:
        """Architectural memory + store forwarding for the bound path.

        Equivalent to the reference's reversed RUU walk: the forwarding
        index holds exactly the in-flight stores, in seq (= RUU) order,
        so scanning one address bucket youngest-first visits the same
        candidates in the same order.
        """
        bucket = self._store_map.get(address)
        if bucket:
            path = self._load_path
            for entry in reversed(bucket):
                if not entry.squashed and path.can_see(entry.path,
                                                       entry.seq):
                    return entry.store_value  # type: ignore[return-value]
        return self._arch_memory.get(address & MASK64, 0)

    def _older_visible_store(self, load: _Entry) -> Optional[_Entry]:
        """Youngest program-order-older in-flight store ``load`` can see."""
        bucket = self._store_map.get(load.mem_address)
        if bucket:
            lseq = load.seq
            path = load.path
            for entry in reversed(bucket):
                if (entry.seq < lseq and not entry.squashed
                        and path.can_see(entry.path, entry.seq)):
                    return entry
        return None

    def _drop_store(self, entry: _Entry) -> None:
        bucket = self._store_map.get(entry.mem_address)
        if bucket:
            if bucket[0] is entry:
                bucket.pop(0)
            else:
                try:
                    bucket.remove(entry)
                except ValueError:
                    pass
            if not bucket:
                del self._store_map[entry.mem_address]

    def _release_ifq(self, path: PathContext) -> None:
        """Drop a path's IFQ, releasing slots and pending fork children."""
        for _, _, prediction, _, child in path.ifq:
            if prediction is not None:
                self.frontend.release(prediction)
            if child is not None:
                self._kill_subtree(child)
        path.ifq.clear()

    def _kill_subtree(self, root: PathContext) -> None:
        """Mark ``root`` and every descendant dead; bubble their entries."""
        victims = [p for p in self._paths if p.is_descendant_of(root)]
        for victim in victims:
            if victim.dead:
                continue
            victim.alive = False
            victim.lost = True
            victim.dead = True
            self._release_ifq(victim)
        victim_set = set(id(v) for v in victims)
        for entry in self._ruu:
            if not entry.squashed and id(entry.path) in victim_set:
                self._squash_entry(entry, rewind=False)
        self._relist()

    def _relist(self) -> None:
        """Rebuild the alive-path list; called after every change of a
        path's liveness, so its readers never filter ``_paths``.

        The rebuild makes a new list and never changes the old one, so
        fetch may keep iterating the list it started with while a fork
        rebuilds it.
        """
        self._alive = [p for p in self._paths if p.alive]

    def _squash_entry(self, entry: _Entry, rewind: bool) -> None:
        if rewind and entry.undo:
            # Applies to the owning path's private register file.
            for record in reversed(entry.undo):
                entry.path.regs[record[1]] = record[2]
        entry.undo.clear()
        entry.squashed = True
        if entry.is_store:
            self._drop_store(entry)
        if entry.prediction is not None:
            self.frontend.release(entry.prediction)
            entry.prediction = None
        if entry.fork_child is not None:
            self._kill_subtree(entry.fork_child)
            entry.fork_child = None
        self._squashed += 1

    def _squash_after(self, path: PathContext, seq: int) -> None:
        """Squash ``path``'s entries younger than ``seq`` and every path
        forked from that region (but nothing forked earlier)."""
        self._release_ifq(path)
        for entry in reversed(self._ruu):  # youngest first: ordered rewind
            if entry.squashed or entry.seq <= seq:
                continue
            if entry.path is path:
                self._squash_entry(entry, rewind=True)
            # Descendants are handled through fork_child kills above.
        # Kill descendants forked from the squashed region (zombies
        # included: their continuation subtrees hang below them).
        for other in self._paths:
            if (other is not path and not other.dead
                    and other.is_descendant_of(path)
                    and other.origin_seq > seq):
                self._kill_subtree(other)
        self._rebuild_writer_map(path)

    def _rebuild_writer_map(self, path: PathContext) -> None:
        """Recompute reg -> youngest visible in-flight producer."""
        writers: Dict[int, _Entry] = {}
        for entry in self._ruu:
            if entry.squashed or entry.dest < 0 or entry.completed:
                continue
            if path.can_see(entry.path, entry.seq) or entry.path is path:
                writers[entry.dest] = entry
        path.last_writer = writers

    def _resolve_fork(self, entry: _Entry) -> None:
        child = entry.fork_child
        entry.fork_child = None
        prediction = entry.prediction
        assert child is not None and prediction is not None
        if child.dead:
            # The child's subtree was killed by an older recovery; fall
            # back to a plain misprediction if the kept side was wrong.
            if entry.mispredicted:
                self._mispredictions += 1
                self.frontend.repair(prediction)
                self.frontend.release(prediction)
                self._recover_in_path(entry)
            else:
                self.frontend.release(prediction)
            return
        self.frontend.release(prediction)
        if not entry.mispredicted:
            # Predicted side (the parent's own stream) was right.
            self._kill_subtree(child)
            return
        # The explored side was right: the parent's post-fork stream and
        # anything forked from it die; the child is the continuation.
        self._fork_saved += 1
        path = entry.path
        # Temporarily detach the child so the region squash spares it.
        child_origin = child.origin_seq
        saved_parent = child.parent
        child.parent = None
        self._squash_after(path, entry.seq)
        child.parent = saved_parent
        child.origin_seq = child_origin
        # The parent path stops here: its continuation lives in `child`.
        path.alive = False
        path.lost = True
        path.fetch_halted = True
        self._relist()
        # No RAS restore: see StackOrganizer.repair_on_fork_resolution.

    def _recover_in_path(self, branch: _Entry) -> None:
        path = branch.path
        self._squash_after(path, branch.seq)
        path.alive = True
        path.lost = False
        path.fetch_pc = branch.next_pc
        path.fetch_halted = False
        path.fetch_stalled_until = self.cycle + 1
        path.last_fetch_line = None
        self._relist()

    def _maybe_fork(self, path: PathContext, pc: int, ii: int,
                    prediction) -> Optional[PathContext]:
        """Fork at a low-confidence conditional branch, context permitting.

        Offered conditional branches only; returns the child path, or
        None when the branch does not fork.
        """
        if len(self._alive) >= self.config.multipath.max_paths:
            return None
        if not self.confidence.is_low_confidence(pc):
            return None
        alternate = (pc + WORD_SIZE if prediction.taken
                     else self.program.text[ii].target)
        if (alternate is None or not 0 <= alternate < self.decode.text_limit
                or alternate % WORD_SIZE):
            return None
        child = PathContext(
            self._next_path_id, alternate, regs=None, parent=path,
            ras=self.organizer.stack_for_fork(path),
        )
        child.dispatch_enabled = False
        child.alternate_target = alternate
        self._next_path_id += 1
        self._paths.append(child)
        self._relist()
        self._forks += 1
        return child

    def _prune_paths(self) -> None:
        """Collapse drained zombies out of ancestry chains, drop corpses.

        Identical to the reference (and run at the same cycles): the
        end-of-run path census feeds the per-path RAS overflow counters,
        so even the prune *cadence* is part of the parity contract.
        """
        inflight = {id(entry.path) for entry in self._ruu}
        for path in self._paths:
            while True:
                parent = path.parent
                if (parent is None or parent.alive
                        or id(parent) in inflight):
                    break
                path.origin_seq = (
                    parent.origin_seq if path.origin_seq == -1
                    else min(path.origin_seq, parent.origin_seq))
                path.parent = parent.parent
        referenced = set()
        for path in self._paths:
            if path.alive or id(path) in inflight:
                node = path
                while node is not None:
                    referenced.add(id(node))
                    node = node.parent
        # Every alive path is referenced and the order is kept, so the
        # alive-path list needs no rebuild.
        self._paths = [p for p in self._paths if id(p) in referenced]

    # ------------------------------------------------------------------
    # Driver.

    def run(self) -> SimResult:
        """Simulate until HALT commits (or a configured limit).

        One monolithic loop over the five stages; stage order and
        semantics replicate ``MultipathCPU.step``/``run`` exactly, with
        the event lists, the alive-path list and the quiescent-cycle
        fast-forward as the only (unobservable) differences. The
        window's event lists live in this frame, as in
        ``ColumnarCycleCPU.run``, so a CPU runs once: a second call
        raises :class:`~repro.errors.SimulationError` instead of
        resuming a run stopped at a limit.
        """
        if self.cycle or self._ruu:
            raise SimulationError(
                "multipath-fast: run() may be called once per CPU")
        core = self.config.core
        fetch_width = core.fetch_width
        decode_width = core.decode_width
        issue_width = core.issue_width
        commit_width = core.commit_width
        ruu_cap = core.ruu_size
        ifq_cap = core.ifq_size
        lsq_cap = core.lsq_size
        n_alus, n_muls, n_ports = (core.int_alus, core.int_multipliers,
                                   core.memory_ports)
        frontend_lag = 1 + core.frontend_depth

        program = self.program
        text = program.text
        decode = self.decode
        text_limit = decode.text_limit
        d_control = decode.control
        d_memory = decode.is_memory
        d_load = decode.is_load
        d_store = decode.is_store
        d_mul = decode.is_mul
        d_halt = decode.is_halt
        d_dest = decode.dest
        d_src1 = decode.src1
        d_src2 = decode.src2
        d_lat = decode.latency
        exec_fns = decode.exec_fns_mp

        memory_h = self.memory
        fetch_line_shift = self._fetch_line_shift
        l1i_hit = self.config.memory.l1i.hit_latency
        access_data = memory_h.access_data
        fetch_line = memory_h.fetch_instruction
        frontend = self.frontend
        predict = frontend.predict
        repair = frontend.repair
        release = frontend.release
        train = frontend.train_commit
        confidence_update = self.confidence.update
        arch_memory = self._arch_memory
        load_fn = self._load
        maybe_fork = self._maybe_fork
        ruu = self._ruu
        store_map = self._store_map
        # The window's event lists (see module docstring). Entries sort
        # in program order by ``seq``; a squashed entry stays on a list
        # until it is met there, and is skipped.
        #: Entries whose in-flight producers have all completed and that
        #: have not issued, in program order: all that issue may pick.
        ready: List[_Entry] = []
        #: completion cycle -> the entries that complete then, and a
        #: heap of those cycles (the earliest is the fast-forward
        #: horizon). Each key is popped exactly at its cycle: no skip
        #: goes past the earliest.
        completions: Dict[int, List[_Entry]] = {}
        horizon: List[int] = []

        COND = _COND
        RET = CONTROL_CODE[ControlClass.RETURN]

        cycle = 0
        seq = 0
        lsq_count = 0
        committed = self._committed
        fetched_n = self._fetched
        dispatched = self._dispatched
        mispredictions = self._mispredictions
        mispred_return = self._mispred_return
        max_cycles = self.max_cycles
        max_insts = self.max_instructions
        done = False
        last_commit_cycle = 0
        last_committed = committed

        while not done:
            if max_cycles is not None and cycle >= max_cycles:
                break
            if max_insts is not None and committed >= max_insts:
                break
            activity = False

            # ---- commit (in order, shared over paths) ----------------
            budget = commit_width
            while budget and ruu:
                entry = ruu[0]
                if entry.squashed:
                    ruu.popleft()
                    if d_memory[entry.ii]:
                        lsq_count -= 1
                        if entry.is_store:
                            self._drop_store(entry)
                    self._bubbles += 1
                    budget -= 1
                    activity = True
                    continue
                if not entry.completed:
                    break
                ruu.popleft()
                activity = True
                ii = entry.ii
                if d_memory[ii]:
                    lsq_count -= 1
                    if entry.is_store:
                        self._drop_store(entry)
                        arch_memory[entry.mem_address] = entry.store_value
                if d_control[ii]:
                    train(entry.pc, text[ii], entry.taken, entry.next_pc,
                          entry.prediction)
                    if d_control[ii] == COND:
                        confidence_update(entry.pc, not entry.mispredicted)
                path = entry.path
                if path.last_writer.get(entry.dest) is entry:
                    del path.last_writer[entry.dest]
                committed += 1
                if d_halt[ii]:
                    done = True
                    self.final_regs = list(path.regs)
                    break
                budget -= 1

            if not done:
                # ---- writeback / fork resolution / recovery ----------
                if horizon and horizon[0] <= cycle:
                    due = completions.pop(heappop(horizon))
                    activity = True
                    if len(due) > 1:
                        due.sort(key=_by_seq)  # the reference's RUU order
                    woken = None
                    for entry in due:
                        entry.completed = True
                        if entry.squashed:
                            # Its consumers are squashed too: none to wake.
                            continue
                        consumers = entry.consumers
                        if consumers is not None:
                            # Wake each consumer whose last in-flight
                            # producer this was.
                            entry.consumers = None
                            for consumer in consumers:
                                left = consumer.wait - 1
                                consumer.wait = left
                                if not left:
                                    if woken is None:
                                        woken = [consumer]
                                    else:
                                        woken.append(consumer)
                        prediction = entry.prediction
                        if prediction is None:
                            continue
                        if entry.fork_child is not None:
                            self.cycle = cycle
                            self._mispredictions = mispredictions
                            self._resolve_fork(entry)
                            mispredictions = self._mispredictions
                        elif entry.mispredicted:
                            mispredictions += 1
                            if d_control[entry.ii] == RET:
                                mispred_return += 1
                            repair(prediction)
                            release(prediction)
                            self.cycle = cycle
                            self._recover_in_path(entry)
                        else:
                            release(prediction)
                    if woken is not None:
                        ready += woken
                        ready.sort(key=_by_seq)

                # ---- issue (program order, resource constrained) -----
                if ready:
                    budget = issue_width
                    alus, muls, ports = n_alus, n_muls, n_ports
                    still = []
                    hold = still.append
                    for idx, entry in enumerate(ready):
                        if budget == 0:
                            still += ready[idx:]
                            break
                        if entry.squashed:
                            continue  # bubbles never issue; prune
                        ii = entry.ii
                        if d_load[ii]:
                            if ports == 0:
                                hold(entry)
                                continue
                            store = self._older_visible_store(entry)
                            if store is not None and not store.completed:
                                hold(entry)
                                continue
                            latency = 1 if store is not None else (
                                access_data(entry.mem_address))
                            ports -= 1
                        elif d_store[ii]:
                            if ports == 0:
                                hold(entry)
                                continue
                            access_data(entry.mem_address, is_store=True)
                            latency = 1
                            ports -= 1
                        elif d_mul[ii]:
                            if muls == 0:
                                hold(entry)
                                continue
                            muls -= 1
                            latency = d_lat[ii]
                        else:
                            if alus == 0:
                                hold(entry)
                                continue
                            alus -= 1
                            latency = d_lat[ii]
                        cc = cycle + latency
                        bucket = completions.get(cc)
                        if bucket is None:
                            completions[cc] = [entry]
                            heappush(horizon, cc)
                        else:
                            bucket.append(entry)
                        budget -= 1
                        activity = True
                    ready = still

                # ---- dispatch (round-robin over ready paths) ---------
                budget = decode_width
                # A plain loop, not a comprehension: up to Python 3.11 a
                # comprehension reading `cycle` makes it a closure cell,
                # and every hot-loop access to it a LOAD_DEREF.
                candidates = []
                for p in self._alive:
                    if p.dispatch_enabled and p.ifq and p.ifq[0][3] <= cycle:
                        candidates.append(p)
                if candidates:
                    start = self._rr_offset % len(candidates)
                    order = (candidates[start:] + candidates[:start] if start
                             else candidates)
                    progress = True
                    full = False
                    while budget and progress and not full:
                        progress = False
                        for path in order:
                            if budget == 0:
                                break
                            ifq = path.ifq
                            if not ifq or ifq[0][3] > cycle:
                                continue
                            if len(ruu) >= ruu_cap:
                                full = True
                                break
                            pc, ii, prediction, _, child = ifq[0]
                            if d_memory[ii] and lsq_count >= lsq_cap:
                                continue
                            ifq.popleft()
                            # -- dispatch one (execute, rename, fork) --
                            seq += 1
                            undo = []
                            self._load_path = path
                            next_pc, taken, mem_addr, store_value = (
                                exec_fns[ii](path.regs, load_fn, undo,
                                             text[ii], pc + WORD_SIZE))
                            if child is not None and not child.alive:
                                child = None
                            mispredicted = (prediction is not None
                                            and not d_halt[ii]
                                            and prediction.target != next_pc)
                            dest = d_dest[ii]
                            is_store = d_store[ii]
                            entry = _Entry(
                                seq, pc, ii, next_pc, taken, prediction,
                                undo, dest, mem_addr, is_store,
                                store_value, mispredicted, path, child)
                            # Count the in-flight producers of the sources
                            # and join their consumer lists.
                            last_writer = path.last_writer
                            wait = 0
                            src = d_src1[ii]
                            if src >= 0:
                                writer = last_writer.get(src)
                                if (writer is not None
                                        and not writer.completed
                                        and not writer.squashed):
                                    wait = 1
                                    if writer.consumers is None:
                                        writer.consumers = [entry]
                                    else:
                                        writer.consumers.append(entry)
                                src = d_src2[ii]
                                if src >= 0:
                                    writer = last_writer.get(src)
                                    if (writer is not None
                                            and not writer.completed
                                            and not writer.squashed):
                                        wait += 1
                                        if writer.consumers is None:
                                            writer.consumers = [entry]
                                        else:
                                            writer.consumers.append(entry)
                            if wait:
                                entry.wait = wait
                            else:
                                ready.append(entry)
                            if dest >= 0:
                                last_writer[dest] = entry
                            if d_memory[ii]:
                                lsq_count += 1
                                if is_store:
                                    bucket = store_map.get(mem_addr)
                                    if bucket is None:
                                        store_map[mem_addr] = [entry]
                                    else:
                                        bucket.append(entry)
                            if child is not None:
                                # The fork's register snapshot exists now.
                                child.regs = list(path.regs)
                                child.origin_seq = seq
                                child.dispatch_enabled = True
                                child.last_writer = dict(last_writer)
                            ruu.append(entry)
                            dispatched += 1
                            budget -= 1
                            progress = True
                            activity = True

                # ---- fetch (round-robin over alive paths) ------------
                paths = self._alive
                if paths:
                    self._rr_offset += 1
                    start = self._rr_offset % len(paths)
                    order = paths[start:] + paths[:start] if start else paths
                    budget = fetch_width
                    ready_at = cycle + frontend_lag
                    for path in order:
                        if budget == 0:
                            break
                        if path.fetch_halted or cycle < path.fetch_stalled_until:
                            continue
                        ifq = path.ifq
                        while budget and len(ifq) < ifq_cap:
                            pc = path.fetch_pc
                            if not 0 <= pc < text_limit or pc % WORD_SIZE:
                                path.fetch_halted = True
                                break
                            line = pc >> fetch_line_shift
                            if line != path.last_fetch_line:
                                latency = fetch_line(pc)
                                path.last_fetch_line = line
                                activity = True  # I-cache state advanced
                                if latency > l1i_hit:
                                    path.fetch_stalled_until = cycle + latency
                                    break
                            ii = pc // WORD_SIZE
                            control = d_control[ii]
                            if control:
                                prediction = predict(pc, text[ii],
                                                     ras=path.ras)
                                next_pc = prediction.target
                                child = (maybe_fork(path, pc, ii, prediction)
                                         if control == COND else None)
                            else:
                                prediction = child = None
                                next_pc = pc + WORD_SIZE
                            ifq.append((pc, ii, prediction, ready_at, child))
                            fetched_n += 1
                            path.fetch_pc = next_pc
                            budget -= 1
                            activity = True
                            if d_halt[ii]:
                                path.fetch_halted = True
                                break
                            if control and next_pc != pc + WORD_SIZE:
                                break  # stop this path at a taken transfer

            cycle += 1
            if committed != last_committed:
                last_committed = committed
                last_commit_cycle = cycle
            elif cycle - last_commit_cycle > _DEADLOCK_LIMIT:
                self.cycle = cycle
                self._store_counts(committed, fetched_n, dispatched,
                                   mispredictions, mispred_return)
                raise SimulationError(
                    f"multipath: no commit for {_DEADLOCK_LIMIT} cycles at "
                    f"cycle {cycle} (paths={self._paths!r})"
                )
            # Prune long-dead paths with no in-flight entries.
            if cycle % _PRUNE_PERIOD == 0:
                self._prune_paths()

            if not activity and not done:
                # ---- quiescent-cycle fast-forward --------------------
                # Nothing acted, so the machine replays this exact cycle
                # until the earliest scheduled event: an in-flight
                # completion, an IFQ head turning ready, or an I-cache
                # fill finishing. (A candidate already in the past means
                # the stage is capacity-blocked, which only a completion
                # unblocks — covered by the horizon.) The jump is
                # clamped to the deadlock deadline, the prune boundary,
                # and max_cycles, and the fetch round-robin offset
                # advances as if every skipped cycle had run.
                target = -1
                if horizon:
                    target = horizon[0]
                for path in self._alive:
                    ifq = path.ifq
                    if ifq and path.dispatch_enabled:
                        head_ready = ifq[0][3]
                        if head_ready >= cycle and (target < 0
                                                    or head_ready < target):
                            target = head_ready
                    if (not path.fetch_halted and len(ifq) < ifq_cap
                            and path.fetch_stalled_until >= cycle
                            and (target < 0
                                 or path.fetch_stalled_until < target)):
                        target = path.fetch_stalled_until
                deadline = last_commit_cycle + _DEADLOCK_LIMIT + 1
                if target < 0 or target > deadline:
                    target = deadline
                boundary = (cycle // _PRUNE_PERIOD + 1) * _PRUNE_PERIOD
                if target > boundary:
                    target = boundary
                if max_cycles is not None and target > max_cycles:
                    target = max_cycles
                if target > cycle:
                    skipped = target - cycle
                    cycle = target
                    if paths:  # fetch's alive list: still alive now
                        self._rr_offset += skipped
                    if cycle - last_commit_cycle > _DEADLOCK_LIMIT:
                        self.cycle = cycle
                        self._store_counts(committed, fetched_n, dispatched,
                                           mispredictions, mispred_return)
                        raise SimulationError(
                            f"multipath: no commit for {_DEADLOCK_LIMIT} "
                            f"cycles at cycle {cycle} "
                            f"(paths={self._paths!r})"
                        )
                    if cycle % _PRUNE_PERIOD == 0:
                        self._prune_paths()

        self.cycle = cycle
        self.done = done
        self._store_counts(committed, fetched_n, dispatched,
                           mispredictions, mispred_return)
        return self._finalize()

    # ------------------------------------------------------------------

    def _store_counts(self, committed, fetched_n, dispatched,
                      mispredictions, mispred_return) -> None:
        self._committed = committed
        self._fetched = fetched_n
        self._dispatched = dispatched
        self._mispredictions = mispredictions
        self._mispred_return = mispred_return

    def _finalize(self) -> SimResult:
        """Promote raw counts into the reference engine's StatGroup shape."""
        group = self.stats = StatGroup("multipath_cpu")
        group.counter("cycles").increment(self.cycle)
        group.counter("committed").increment(self._committed)
        group.counter("fetched").increment(self._fetched)
        group.counter("dispatched").increment(self._dispatched)
        group.counter("squashed").increment(self._squashed)
        group.counter("bubbles_retired").increment(self._bubbles)
        group.counter("forks").increment(self._forks)
        group.counter(
            "fork_saved_mispredictions",
            "mispredictions whose other side was already executing",
        ).increment(self._fork_saved)
        group.counter("mispredictions").increment(self._mispredictions)
        group.counter("mispredictions_return").increment(self._mispred_return)
        for name in ("return_accuracy", "cond_accuracy", "indirect_accuracy"):
            source = self.frontend.stats[name]
            group.rate(name).record_many(source.hits, source.events)
        stacks = []
        if self.organizer.is_per_path:
            stacks = [p.ras for p in self._paths if p.ras is not None]
        elif self.organizer.root_stack() is not None:
            stacks = [self.organizer.root_stack()]
        overflow = sum(s.stats["overflows"].value for s in stacks)
        underflow = sum(s.stats["underflows"].value for s in stacks)
        group.counter("ras_overflows").increment(overflow)
        group.counter("ras_underflows").increment(underflow)
        return SimResult(group)


def run_multipath_fast(
    program: Program,
    config: MachineConfig,
    max_instructions: Optional[int] = None,
) -> Tuple[SimResult, FastMultipathCPU]:
    """Run the fast multipath engine; returns ``(result, cpu)``.

    Mirrors :func:`repro.core.experiment.run_multipath` — same result
    type, bit-identical counters — at a multiple of the throughput.
    """
    cpu = FastMultipathCPU(program, config,
                           max_instructions=max_instructions)
    return cpu.run(), cpu
