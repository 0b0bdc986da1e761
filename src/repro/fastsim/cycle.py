"""The columnar single-path cycle engine: the replay playbook applied
to the execution-driven pipeline.

:class:`~repro.pipeline.cpu.SinglePathCPU` spends most of its wall time
on interpreter bookkeeping, not on the machine it models: every cycle
re-enters five stage methods, every fetched instruction allocates an
IFQ record, every dispatch allocates an RUU object plus operand tuples,
and every counter bump crosses a method call. This engine re-expresses
the *same machine* in a shape the interpreter executes quickly:

* **Columnar window state.** The IFQ and RUU are fixed-capacity ring
  buffers of index-parallel Python lists, so in-flight instructions are
  rows, not objects, and slots are reused instead of allocated; the
  prediction and undo-log references ride in the same kind of column.
  Lists, not numpy arrays: this is a scalar event loop, and CPython
  list indexing beats numpy scalar access for one-at-a-time reads and
  writes (docs/performance.md §6).
* **Hoisted dispatch.** All static per-instruction facts and the
  instruction semantics themselves come from the decode table of
  :mod:`repro.fastsim.decode` (compact fact columns and one exec
  function per opcode); RAS repair and shadow-slot release are bound
  to mechanism-specific callables once at construction, so the
  per-cycle loop contains no class dispatch.
* **Completion map and wakeup**, as SimpleScalar ``sim-outorder``'s
  event queue and dependence chains. Each dispatched entry counts its
  in-flight producers and joins their consumer lists; issue puts the
  entry in a map keyed by its completion cycle. Writeback pops the
  entries due this cycle and wakes every consumer whose count reaches
  zero, and issue walks only the woken entries, in program order. An
  entry waiting on an operand is never re-tested.
* **Quiescent-cycle fast-forward.** Most cycles of the Table 1 machine
  commit nothing and change nothing (the window is waiting out a cache
  miss, fetch is stalled on an I-line, the IFQ head is still in the
  front-end pipe). When a cycle performs *no* state change, the engine
  computes the next cycle at which anything can happen (minimum over
  the earliest key of the completion map, kept in a heap, the IFQ
  head's ready cycle, and the fetch stall horizon) and jumps straight
  there, attributing every skipped cycle to the same stall bucket the
  reference would have — the skipped cycles are exactly the ones the
  reference burns in no-op stage walks.

Everything *behavioural* is shared with the reference engine, not
re-implemented: the front-end predictor facade (direction tables, BTB,
RAS + repair mechanisms, shadow checkpoints), the cache hierarchy, and
the undo-log record layout. Counters are therefore **bit-identical**
to :class:`~repro.pipeline.cpu.SinglePathCPU` for every repair
mechanism, stack size, and workload — enforced by
:mod:`repro.fastsim.parity` and ``tests/test_fastsim_cycle.py``, and
benchmarked by ``benchmarks/bench_cycle_throughput.py`` (>= 3x, gated
in CI; see docs/engines.md and docs/performance.md).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional, Tuple

from repro.bpred.predictor import FrontEndPredictor
from repro.caches.hierarchy import MemoryHierarchy
from repro.config.machine import MachineConfig
from repro.errors import SimulationError
from repro.fastsim.decode import CONTROL_CODE, decode_table
from repro.isa.opcodes import ControlClass, WORD_SIZE
from repro.isa.program import Program
from repro.pipeline.results import SimResult
from repro.stats import StatGroup

#: Mirrors repro.pipeline.cpu._DEADLOCK_LIMIT (same wedge semantics).
_DEADLOCK_LIMIT = 20_000

#: Stall-attribution bucket indices (see _finalize for the names).
#: Bucket 3, ``stall_dependency``, is never charged: the RUU head's
#: producers are older than the head, so they have already committed.
_STALL_FRONTEND, _STALL_MEMORY, _STALL_EXECUTE, _STALL_ISSUE = 0, 1, 2, 4


class ColumnarCycleCPU:
    """Columnar re-expression of the Table 1 single-path machine.

    Drop-in counterpart of :class:`~repro.pipeline.cpu.SinglePathCPU`
    for the ``run()`` contract: same constructor shape (minus the
    commit hook, which needs per-instruction objects), same
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

        self.frontend = FrontEndPredictor(self.config.predictor)
        self.memory = MemoryHierarchy(self.config.memory)
        self.decode = decode_table(program)
        self.cycle = 0
        self.done = False

        # Architectural state (the single-path machine owns it outright;
        # this mirrors MachineState without the method-call layer).
        self.regs = [0] * 32
        self.mem = dict(program.data)

        core = self.config.core
        self._ruu_cap = core.ruu_size
        self._ifq_cap = core.ifq_size
        self._alloc_columns()

        # Hoisted per-mechanism dispatch: one attribute lookup at
        # construction instead of two per repair/release event.
        frontend = self.frontend
        self._predict = frontend.predict
        self._repair = frontend.repair
        self._release = frontend.release
        self._train = frontend.train_commit

        # Raw counters; promoted into a StatGroup at _finalize.
        self._committed = 0
        self._fetched = 0
        self._dispatched = 0
        self._squashed = 0
        self._mispredictions = 0
        self._mispred_cond = 0
        self._mispred_return = 0
        self._mispred_indirect = 0
        self._stalls = [0, 0, 0, 0, 0]

    def _alloc_columns(self) -> None:
        ruu_cap, ifq_cap = self._ruu_cap, self._ifq_cap
        self._cols = {
            name: [0] * ruu_cap
            for name in ("seq", "pc", "inst", "next_pc", "mem", "wait")
        }
        for name in ("issued", "completed", "taken", "misp", "halt"):
            self._cols[name] = [False] * ruu_cap
        self._ifq_cols = {name: [0] * ifq_cap
                          for name in ("pc", "inst", "ready")}
        self._ruu_pred = [None] * ruu_cap
        self._ruu_undo = [None] * ruu_cap
        self._ruu_consumers = [None] * ruu_cap
        self._ifq_pred = [None] * ifq_cap

    # ------------------------------------------------------------------

    def run(self) -> SimResult:
        """Simulate until HALT commits (or a configured limit).

        One monolithic loop: stage order, per-stage semantics, stall
        attribution, and deadlock behaviour replicate
        ``SinglePathCPU.step``/``run`` exactly; see the module docstring
        for what is allowed to differ (nothing observable).
        """
        # -- bind everything hot to locals -----------------------------
        core = self.config.core
        fetch_width = core.fetch_width
        decode_width = core.decode_width
        issue_width = core.issue_width
        commit_width = core.commit_width
        ruu_cap, ifq_cap = self._ruu_cap, self._ifq_cap
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
        exec_fns = decode.exec_fns

        regs = self.regs
        mem = self.mem
        memory_h = self.memory
        fetch_line_shift = self.config.memory.l1i.line_bytes.bit_length() - 1
        l1i_hit = self.config.memory.l1i.hit_latency
        access_data = memory_h.access_data
        fetch_line = memory_h.fetch_instruction

        predict = self._predict
        repair = self._repair
        release = self._release
        train = self._train

        cols = self._cols
        r_seq = cols["seq"]
        r_pc = cols["pc"]
        r_inst = cols["inst"]
        r_next = cols["next_pc"]
        r_mem = cols["mem"]
        r_wait = cols["wait"]
        r_issued = cols["issued"]
        r_done = cols["completed"]
        r_taken = cols["taken"]
        r_misp = cols["misp"]
        r_halt = cols["halt"]
        r_pred = self._ruu_pred
        r_undo = self._ruu_undo
        r_cons = self._ruu_consumers
        i_pc = self._ifq_cols["pc"]
        i_inst = self._ifq_cols["inst"]
        i_ready = self._ifq_cols["ready"]
        i_pred = self._ifq_pred

        COND = CONTROL_CODE[ControlClass.COND_BRANCH]
        RET = CONTROL_CODE[ControlClass.RETURN]

        # -- machine registers (scalars) --------------------------------
        cycle = 0
        seq = 0
        ruu_head = 0
        ruu_count = 0
        ifq_head = 0
        ifq_count = 0
        lsq_count = 0
        fetch_pc = program.entry
        fetch_stall = 0
        fetch_halted = False
        last_line = -1
        #: reg -> (slot, seq) of the youngest in-flight producer.
        writer_slot = [-1] * 32
        writer_seq = [0] * 32
        # sim-outorder's event queue and dependence-chain wakeup, so the
        # per-cycle stages touch only the entries that can act. Entries
        # are (seq, slot) pairs, which sort in program order. A slot's
        # seq is zeroed when it commits or is squashed (live seqs start
        # at 1), so a pair is dead exactly when ``r_seq[slot] != seq``;
        # dead pairs are skipped where they are met.
        #: Entries whose in-flight producers have all completed and that
        #: have not issued, in program order: all that issue may pick.
        ready = []
        #: completion cycle -> the entries that complete then, and a
        #: heap of those cycles (the earliest is the fast-forward
        #: horizon). Each key is popped exactly at its cycle: no skip
        #: goes past the earliest.
        completions = {}
        horizon = []
        #: address -> [(seq, slot)] of in-flight stores, oldest first
        #: (the LSQ forwarding index).
        store_map = {}

        committed = self._committed
        fetched = self._fetched
        dispatched = self._dispatched
        squashed = self._squashed
        mispredictions = self._mispredictions
        mispred_cond = self._mispred_cond
        mispred_return = self._mispred_return
        mispred_indirect = self._mispred_indirect
        stalls = self._stalls

        max_cycles = self.max_cycles
        max_insts = self.max_instructions
        last_commit_cycle = 0
        last_committed = 0
        done = False

        while not done:
            if max_cycles is not None and cycle >= max_cycles:
                break
            if max_insts is not None and committed >= max_insts:
                break
            activity = False
            stall_bucket = -1

            # ---- commit (oldest first, up to commit_width) -----------
            budget = commit_width
            while budget and ruu_count and r_done[ruu_head]:
                slot = ruu_head
                ruu_head = ruu_head + 1 if ruu_head + 1 < ruu_cap else 0
                ruu_count -= 1
                ii = r_inst[slot]
                if d_control[ii]:
                    train(r_pc[slot], text[ii], r_taken[slot],
                          r_next[slot], r_pred[slot])
                dest = d_dest[ii]
                if (dest >= 0 and writer_slot[dest] == slot
                        and writer_seq[dest] == r_seq[slot]):
                    writer_slot[dest] = -1
                if d_memory[ii]:
                    lsq_count -= 1
                r_seq[slot] = 0
                r_undo[slot] = None
                committed += 1
                activity = True
                if r_halt[slot]:
                    done = True
                    break
                budget -= 1
            if done:
                cycle += 1
                break

            if not activity:
                # ---- stall attribution (no commit this cycle) --------
                if ruu_count == 0:
                    stall_bucket = _STALL_FRONTEND
                elif r_issued[ruu_head]:
                    stall_bucket = (_STALL_MEMORY
                                    if d_memory[r_inst[ruu_head]]
                                    else _STALL_EXECUTE)
                else:
                    stall_bucket = _STALL_ISSUE
                stalls[stall_bucket] += 1

            # ---- writeback (resolve completions, oldest first) -------
            if horizon and horizon[0] <= cycle:
                due = completions.pop(heappop(horizon))
                if len(due) > 1:
                    due.sort()  # program order (the reference walks the RUU)
                woken = None
                for sq, slot in due:
                    if r_seq[slot] != sq:
                        continue  # squashed
                    r_done[slot] = True
                    activity = True
                    consumers = r_cons[slot]
                    if consumers is not None:
                        # Wake each consumer whose last in-flight
                        # producer this was.
                        r_cons[slot] = None
                        for item in consumers:
                            cur = item[1]
                            if r_seq[cur] == item[0]:
                                left = r_wait[cur] - 1
                                r_wait[cur] = left
                                if not left:
                                    if woken is None:
                                        woken = [item]
                                    else:
                                        woken.append(item)
                    pred = r_pred[slot]
                    if pred is None:
                        continue
                    if r_misp[slot]:
                        mispredictions += 1
                        cclass = d_control[r_inst[slot]]
                        if cclass == COND:
                            mispred_cond += 1
                        elif cclass == RET:
                            mispred_return += 1
                        else:
                            mispred_indirect += 1
                        repair(pred)
                        release(pred)
                        # -- recovery: squash younger, redirect ----
                        for j in range(ifq_count):
                            fp = i_pred[(ifq_head + j) % ifq_cap]
                            if fp is not None:
                                release(fp)
                        ifq_count = 0
                        branch_seq = sq
                        tail = (ruu_head + ruu_count) % ruu_cap
                        while ruu_count:
                            last = tail - 1 if tail else ruu_cap - 1
                            if r_seq[last] <= branch_seq:
                                break
                            tail = last
                            ruu_count -= 1
                            r_seq[last] = 0
                            undo = r_undo[last]
                            if undo:
                                for rec in reversed(undo):
                                    if rec[0] == "r":
                                        regs[rec[1]] = rec[2]
                                    elif rec[3]:
                                        mem[rec[1]] = rec[2]
                                    else:
                                        mem.pop(rec[1], None)
                            r_undo[last] = None
                            fp = r_pred[last]
                            if fp is not None:
                                release(fp)
                            if d_memory[r_inst[last]]:
                                lsq_count -= 1
                            squashed += 1
                        for reg in range(32):
                            writer_slot[reg] = -1
                        wslot = ruu_head
                        for _ in range(ruu_count):
                            dest = d_dest[r_inst[wslot]]
                            if dest >= 0:
                                writer_slot[dest] = wslot
                                writer_seq[dest] = r_seq[wslot]
                            wslot = (wslot + 1 if wslot + 1 < ruu_cap
                                     else 0)
                        fetch_pc = r_next[slot]
                        fetch_halted = False
                        fetch_stall = cycle + 1
                        last_line = -1
                        break  # younger completions were squashed
                    release(pred)
                if woken is not None:
                    ready += woken
                    ready.sort()

            # ---- issue (program order, resource constrained) ---------
            if ready:
                budget = issue_width
                alus, muls, ports = n_alus, n_muls, n_ports
                still = []
                hold = still.append
                for idx, item in enumerate(ready):
                    if budget == 0:
                        still += ready[idx:]
                        break
                    sq, cur = item
                    if r_seq[cur] != sq:
                        continue  # squashed; prune
                    ii = r_inst[cur]
                    if d_load[ii]:
                        if ports == 0:
                            hold(item)
                            continue
                        # Nearest older in-flight store to the same
                        # address, via the forwarding index (youngest
                        # first; dead entries pruned on the way).
                        addr = r_mem[cur]
                        store = -1
                        lst = store_map.get(addr)
                        if lst:
                            for i in range(len(lst) - 1, -1, -1):
                                ssq, s = lst[i]
                                if r_seq[s] != ssq:
                                    del lst[i]
                                elif ssq < sq:
                                    store = s
                                    break
                            if not lst:
                                del store_map[addr]
                        if store >= 0 and not r_done[store]:
                            hold(item)
                            continue  # wait for the producing store
                        if store >= 0:
                            latency = 1  # LSQ store-to-load forwarding
                        else:
                            latency = access_data(addr)
                        ports -= 1
                    elif d_store[ii]:
                        if ports == 0:
                            hold(item)
                            continue
                        access_data(r_mem[cur], is_store=True)
                        latency = 1
                        ports -= 1
                    elif d_mul[ii]:
                        if muls == 0:
                            hold(item)
                            continue
                        muls -= 1
                        latency = d_lat[ii]
                    else:
                        if alus == 0:
                            hold(item)
                            continue
                        alus -= 1
                        latency = d_lat[ii]
                    r_issued[cur] = True
                    cc = cycle + latency
                    bucket = completions.get(cc)
                    if bucket is None:
                        completions[cc] = [item]
                        heappush(horizon, cc)
                    else:
                        bucket.append(item)
                    budget -= 1
                    activity = True
                ready = still

            # ---- dispatch (execute against live state, record undo) --
            budget = decode_width
            while budget and ifq_count and i_ready[ifq_head] <= cycle:
                if ruu_count >= ruu_cap:
                    break
                ii = i_inst[ifq_head]
                if d_memory[ii] and lsq_count >= lsq_cap:
                    break
                pc = i_pc[ifq_head]
                pred = i_pred[ifq_head]
                i_pred[ifq_head] = None
                ifq_head = ifq_head + 1 if ifq_head + 1 < ifq_cap else 0
                ifq_count -= 1
                seq += 1
                undo = []
                next_pc, taken, mem_addr, _ = exec_fns[ii](
                    regs, mem, undo, text[ii], pc + WORD_SIZE)
                slot = (ruu_head + ruu_count) % ruu_cap
                ruu_count += 1
                r_seq[slot] = seq
                r_pc[slot] = pc
                r_inst[slot] = ii
                r_next[slot] = next_pc
                r_taken[slot] = taken
                r_issued[slot] = False
                r_done[slot] = False
                halt = d_halt[ii]
                r_halt[slot] = halt
                r_pred[slot] = pred
                r_undo[slot] = undo
                r_misp[slot] = (pred is not None and not halt
                                and pred.target != next_pc)
                r_mem[slot] = mem_addr
                r_cons[slot] = None
                # Count the in-flight producers and join their consumer
                # lists (a register read twice counts its writer twice,
                # and is woken by it once, as the reference's deps list).
                item = (seq, slot)
                wait = 0
                src = d_src1[ii]
                if src >= 0:
                    w = writer_slot[src]
                    if w >= 0 and r_seq[w] == writer_seq[src] and not r_done[w]:
                        wait = 1
                        consumers = r_cons[w]
                        if consumers is None:
                            r_cons[w] = [item]
                        else:
                            consumers.append(item)
                    src = d_src2[ii]
                    if src >= 0:
                        w = writer_slot[src]
                        if (w >= 0 and r_seq[w] == writer_seq[src]
                                and not r_done[w]):
                            wait += 1
                            consumers = r_cons[w]
                            if consumers is None:
                                r_cons[w] = [item]
                            else:
                                consumers.append(item)
                r_wait[slot] = wait
                dest = d_dest[ii]
                if dest >= 0:
                    writer_slot[dest] = slot
                    writer_seq[dest] = seq
                if d_memory[ii]:
                    lsq_count += 1
                    if d_store[ii]:
                        bucket = store_map.get(mem_addr)
                        if bucket is None:
                            store_map[mem_addr] = [item]
                        else:
                            bucket.append(item)
                if not wait:
                    ready.append(item)
                dispatched += 1
                budget -= 1
                activity = True

            # ---- fetch (follow the predicted stream) -----------------
            if not fetch_halted and cycle >= fetch_stall:
                budget = fetch_width
                while budget and ifq_count < ifq_cap:
                    pc = fetch_pc
                    if not (0 <= pc < text_limit) or pc % WORD_SIZE:
                        # Wrong path wandered out of text; idle until
                        # the mispredicted branch resolves.
                        fetch_halted = True
                        break
                    line = pc >> fetch_line_shift
                    if line != last_line:
                        latency = fetch_line(pc)
                        last_line = line
                        activity = True  # I-cache state advanced
                        if latency > l1i_hit:
                            fetch_stall = cycle + latency
                            break
                    ii = pc // WORD_SIZE
                    if d_control[ii]:
                        pred = predict(pc, text[ii])
                        next_pc = pred.target
                    else:
                        pred = None
                        next_pc = pc + WORD_SIZE
                    slot = (ifq_head + ifq_count) % ifq_cap
                    i_pc[slot] = pc
                    i_inst[slot] = ii
                    i_ready[slot] = cycle + frontend_lag
                    i_pred[slot] = pred
                    ifq_count += 1
                    fetched += 1
                    fetch_pc = next_pc
                    budget -= 1
                    activity = True
                    if d_halt[ii]:
                        fetch_halted = True
                        break
                    if pred is not None and next_pc != pc + WORD_SIZE:
                        break  # stop at a (predicted-)taken transfer

            cycle += 1

            # ---- run-loop bookkeeping (commit tracking, deadlock) ----
            if committed != last_committed:
                last_committed = committed
                last_commit_cycle = cycle
            elif cycle - last_commit_cycle > _DEADLOCK_LIMIT:
                self._store_counts(
                    cycle, committed, fetched, dispatched, squashed,
                    mispredictions, mispred_cond, mispred_return,
                    mispred_indirect)
                raise SimulationError(
                    f"no commit for {_DEADLOCK_LIMIT} cycles at cycle "
                    f"{cycle} (pc={fetch_pc}, ruu={ruu_count}, "
                    f"ifq={ifq_count})"
                )

            # ---- quiescent fast-forward ------------------------------
            if not activity:
                target = -1
                if horizon:
                    target = horizon[0]
                if ifq_count:
                    # `cycle` is already the *next* cycle to execute, so
                    # an event due exactly then must clamp the skip to a
                    # no-op (>=); a head ready strictly in the past means
                    # dispatch is blocked on window capacity, which only
                    # a completion (the horizon) can clear.
                    head_ready = i_ready[ifq_head]
                    if head_ready >= cycle and (target < 0
                                                or head_ready < target):
                        target = head_ready
                if (not fetch_halted and ifq_count < ifq_cap
                        and fetch_stall >= cycle
                        and (target < 0 or fetch_stall < target)):
                    target = fetch_stall
                deadline = last_commit_cycle + _DEADLOCK_LIMIT + 1
                if target < 0 or target > deadline:
                    # Nothing will ever happen again: burn forward to
                    # the deadlock horizon, exactly as the reference
                    # engine does one no-op step at a time.
                    target = deadline
                if max_cycles is not None and target > max_cycles:
                    target = max_cycles
                if target > cycle:
                    # Each skipped cycle would have attributed the same
                    # stall bucket and changed nothing else.
                    stalls[stall_bucket] += target - cycle
                    cycle = target
                if cycle == deadline:
                    self._store_counts(
                        cycle, committed, fetched, dispatched, squashed,
                        mispredictions, mispred_cond, mispred_return,
                        mispred_indirect)
                    raise SimulationError(
                        f"no commit for {_DEADLOCK_LIMIT} cycles at cycle "
                        f"{cycle} (pc={fetch_pc}, ruu={ruu_count}, "
                        f"ifq={ifq_count})"
                    )

        self._store_counts(cycle, committed, fetched, dispatched, squashed,
                           mispredictions, mispred_cond, mispred_return,
                           mispred_indirect)
        self.done = done
        return self._finalize()

    # ------------------------------------------------------------------

    def _store_counts(self, cycle, committed, fetched, dispatched, squashed,
                      mispredictions, mispred_cond, mispred_return,
                      mispred_indirect) -> None:
        self.cycle = cycle
        self._committed = committed
        self._fetched = fetched
        self._dispatched = dispatched
        self._squashed = squashed
        self._mispredictions = mispredictions
        self._mispred_cond = mispred_cond
        self._mispred_return = mispred_return
        self._mispred_indirect = mispred_indirect

    def _finalize(self) -> SimResult:
        """Promote raw counts into the reference engine's StatGroup shape."""
        group = self.stats = StatGroup("cpu")
        group.counter("cycles").increment(self.cycle)
        group.counter("committed").increment(self._committed)
        group.counter("fetched").increment(self._fetched)
        group.counter("dispatched").increment(self._dispatched)
        group.counter("squashed").increment(self._squashed)
        group.counter("mispredictions").increment(self._mispredictions)
        group.counter("mispredictions_cond").increment(self._mispred_cond)
        group.counter("mispredictions_return").increment(self._mispred_return)
        group.counter("mispredictions_indirect").increment(
            self._mispred_indirect)
        for name, value in zip(
                ("stall_frontend", "stall_memory", "stall_execute",
                 "stall_dependency", "stall_issue"), self._stalls):
            group.counter(name).increment(value)
        for name in ("return_accuracy", "cond_accuracy", "indirect_accuracy"):
            source = self.frontend.stats[name]
            group.rate(name).record_many(source.hits, source.events)
        group.counter("returns_from_btb").increment(
            self.frontend.stats["returns_from_btb"].value)
        ras = self.frontend.ras
        if ras is not None:
            group.counter("ras_pushes").increment(ras.stats["pushes"].value)
            group.counter("ras_pops").increment(ras.stats["pops"].value)
            group.counter("ras_overflows").increment(
                ras.stats["overflows"].value)
            group.counter("ras_underflows").increment(
                ras.stats["underflows"].value)
        group.counter("l1i_misses").increment(
            self.memory.l1i.stats["misses"].value)
        group.counter("l1d_misses").increment(
            self.memory.l1d.stats["misses"].value)
        return SimResult(group)


def run_cycle_fast(
    program: Program,
    config: Optional[MachineConfig] = None,
    max_instructions: Optional[int] = None,
) -> Tuple[SimResult, ColumnarCycleCPU]:
    """Run the columnar single-path engine; returns ``(result, cpu)``.

    Mirrors :func:`repro.core.experiment.run_cycle` — same result type,
    bit-identical counters — at several times the throughput.
    """
    cpu = ColumnarCycleCPU(program, config, max_instructions=max_instructions)
    return cpu.run(), cpu
