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
  instruction semantics themselves come from the precomputed function
  tables of :mod:`repro.fastsim.decode`; RAS repair and shadow-slot
  release are bound to mechanism-specific callables once at
  construction, so the per-cycle loop contains no class dispatch.
* **Quiescent-cycle fast-forward.** Most cycles of the Table 1 machine
  commit nothing and change nothing (the window is waiting out a cache
  miss, fetch is stalled on an I-line, the IFQ head is still in the
  front-end pipe). When a cycle performs *no* state change, the engine
  computes the next cycle at which anything can happen (minimum over
  pending completion times, the IFQ head's ready cycle, and the fetch
  stall horizon) and jumps straight there, attributing every skipped
  cycle to the same stall bucket the reference would have — the
  skipped cycles are exactly the ones the reference burns in no-op
  stage walks.

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

from typing import Optional, Tuple

from repro.bpred.predictor import FrontEndPredictor
from repro.caches.hierarchy import MemoryHierarchy
from repro.config.machine import MachineConfig
from repro.errors import SimulationError
from repro.fastsim.decode import decode_table
from repro.isa.opcodes import ControlClass, WORD_SIZE
from repro.isa.program import Program
from repro.pipeline.results import SimResult
from repro.stats import StatGroup

#: Mirrors repro.pipeline.cpu._DEADLOCK_LIMIT (same wedge semantics).
_DEADLOCK_LIMIT = 20_000

#: Stall-attribution bucket indices (see _finalize for the names).
_STALL_FRONTEND, _STALL_MEMORY, _STALL_EXECUTE = 0, 1, 2
_STALL_DEPENDENCY, _STALL_ISSUE = 3, 4


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
            for name in ("seq", "pc", "inst", "next_pc", "mem",
                         "dispatched", "complete", "dep1", "dep1_seq",
                         "dep2", "dep2_seq")
        }
        for name in ("issued", "completed", "taken", "misp", "halt",
                     "mem_valid"):
            self._cols[name] = [False] * ruu_cap
        self._ifq_cols = {name: [0] * ifq_cap
                          for name in ("pc", "inst", "ready")}
        self._ruu_pred = [None] * ruu_cap
        self._ruu_undo = [None] * ruu_cap
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
        d_control = decode.is_control
        d_class = decode.control
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
        r_memv = cols["mem_valid"]
        r_disp = cols["dispatched"]
        r_comp = cols["complete"]
        r_dep1 = cols["dep1"]
        r_dep1s = cols["dep1_seq"]
        r_dep2 = cols["dep2"]
        r_dep2s = cols["dep2_seq"]
        r_issued = cols["issued"]
        r_done = cols["completed"]
        r_taken = cols["taken"]
        r_misp = cols["misp"]
        r_halt = cols["halt"]
        r_pred = self._ruu_pred
        r_undo = self._ruu_undo
        i_pc = self._ifq_cols["pc"]
        i_inst = self._ifq_cols["inst"]
        i_ready = self._ifq_cols["ready"]
        i_pred = self._ifq_pred

        COND = ControlClass.COND_BRANCH
        RET = ControlClass.RETURN

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
        # Event-driven work-lists, so the per-cycle stages walk only the
        # entries that can possibly act rather than the whole window.
        # Entries are (slot, seq) pairs; a pair is dead (committed or
        # squashed) when the slot left the ring window or was reseeded
        # with a different seq, and dead pairs are pruned lazily.
        #: Dispatched-but-unissued entries, in program order.
        pending = []
        #: Issued-but-incomplete entries, plus the earliest completion.
        inflight = []
        incomplete = 0
        min_complete = 0
        #: address -> [(slot, seq)] of in-flight stores, oldest first
        #: (the LSQ forwarding index; seq order == program order).
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
                else:
                    head = ruu_head
                    if r_issued[head]:
                        stall_bucket = (_STALL_MEMORY
                                        if d_memory[r_inst[head]]
                                        else _STALL_EXECUTE)
                    else:
                        d1, d2 = r_dep1[head], r_dep2[head]
                        blocked = (
                            (d1 >= 0 and r_seq[d1] == r_dep1s[head]
                             and not r_done[d1])
                            or (d2 >= 0 and r_seq[d2] == r_dep2s[head]
                                and not r_done[d2]))
                        stall_bucket = (_STALL_DEPENDENCY if blocked
                                        else _STALL_ISSUE)
                stalls[stall_bucket] += 1

            # ---- writeback (resolve completions, oldest first) -------
            if incomplete and min_complete <= cycle:
                if ruu_count:
                    resolvable = []
                    keep = []
                    for item in inflight:
                        slot, sq = item
                        if (r_seq[slot] != sq
                                or not (slot - ruu_head) % ruu_cap
                                < ruu_count):
                            continue  # squashed; prune
                        if r_comp[slot] <= cycle:
                            resolvable.append(slot)
                        else:
                            keep.append(item)
                    if len(resolvable) > 1:
                        # Program order (the reference walks the RUU).
                        resolvable.sort(key=r_seq.__getitem__)
                    for slot in resolvable:
                        r_done[slot] = True
                        activity = True
                        pred = r_pred[slot]
                        if pred is None:
                            continue
                        if r_misp[slot]:
                            mispredictions += 1
                            cclass = d_class[r_inst[slot]]
                            if cclass is COND:
                                mispred_cond += 1
                            elif cclass is RET:
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
                            branch_seq = r_seq[slot]
                            tail = (ruu_head + ruu_count) % ruu_cap
                            while ruu_count:
                                last = tail - 1 if tail else ruu_cap - 1
                                if r_seq[last] <= branch_seq:
                                    break
                                tail = last
                                ruu_count -= 1
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
                            break  # younger resolvables were squashed
                        release(pred)
                    # Rebuild the completion horizon; a recovery may
                    # have squashed some of the kept entries.
                    inflight = []
                    incomplete = 0
                    min_complete = 0
                    for item in keep:
                        slot, sq = item
                        if (r_seq[slot] != sq
                                or not (slot - ruu_head) % ruu_cap
                                < ruu_count):
                            continue
                        cc = r_comp[slot]
                        if not incomplete or cc < min_complete:
                            min_complete = cc
                        incomplete += 1
                        inflight.append(item)
                else:
                    inflight = []
                    incomplete = 0
                    min_complete = 0

            # ---- issue (program order, resource constrained) ---------
            if pending:
                budget = issue_width
                alus, muls, ports = n_alus, n_muls, n_ports
                still = []
                hold = still.append
                for idx, item in enumerate(pending):
                    if budget == 0:
                        still.extend(pending[idx:])
                        break
                    cur, sq = item
                    if (r_seq[cur] != sq
                            or not (cur - ruu_head) % ruu_cap < ruu_count):
                        continue  # squashed; prune
                    if r_disp[cur] >= cycle:
                        hold(item)
                        continue
                    d1 = r_dep1[cur]
                    if d1 >= 0 and r_seq[d1] == r_dep1s[cur] and not r_done[d1]:
                        hold(item)
                        continue
                    d2 = r_dep2[cur]
                    if d2 >= 0 and r_seq[d2] == r_dep2s[cur] and not r_done[d2]:
                        hold(item)
                        continue
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
                                s, ssq = lst[i]
                                if (r_seq[s] != ssq
                                        or not (s - ruu_head) % ruu_cap
                                        < ruu_count):
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
                    r_comp[cur] = cc
                    if not incomplete or cc < min_complete:
                        min_complete = cc
                    incomplete += 1
                    inflight.append(item)
                    budget -= 1
                    activity = True
                pending = still

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
                next_pc, taken, mem_addr = exec_fns[ii](regs, mem, undo)
                slot = (ruu_head + ruu_count) % ruu_cap
                ruu_count += 1
                r_seq[slot] = seq
                r_pc[slot] = pc
                r_inst[slot] = ii
                r_next[slot] = next_pc
                r_taken[slot] = taken
                r_disp[slot] = cycle
                r_issued[slot] = False
                r_done[slot] = False
                halt = d_halt[ii]
                r_halt[slot] = halt
                r_pred[slot] = pred
                r_undo[slot] = undo
                r_misp[slot] = (pred is not None and not halt
                                and pred.target != next_pc)
                if mem_addr is not None:
                    r_mem[slot] = mem_addr
                    r_memv[slot] = True
                else:
                    r_memv[slot] = False
                src = d_src1[ii]
                if src >= 0:
                    w = writer_slot[src]
                    if w >= 0 and r_seq[w] == writer_seq[src] and not r_done[w]:
                        r_dep1[slot] = w
                        r_dep1s[slot] = writer_seq[src]
                    else:
                        r_dep1[slot] = -1
                    src = d_src2[ii]
                    if src >= 0:
                        w = writer_slot[src]
                        if (w >= 0 and r_seq[w] == writer_seq[src]
                                and not r_done[w]):
                            r_dep2[slot] = w
                            r_dep2s[slot] = writer_seq[src]
                        else:
                            r_dep2[slot] = -1
                    else:
                        r_dep2[slot] = -1
                else:
                    r_dep1[slot] = -1
                    r_dep2[slot] = -1
                dest = d_dest[ii]
                if dest >= 0:
                    writer_slot[dest] = slot
                    writer_seq[dest] = seq
                if d_memory[ii]:
                    lsq_count += 1
                    if d_store[ii]:
                        bucket = store_map.get(mem_addr)
                        if bucket is None:
                            store_map[mem_addr] = [(slot, seq)]
                        else:
                            bucket.append((slot, seq))
                pending.append((slot, seq))
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
                if incomplete:
                    target = min_complete
                if ifq_count:
                    # `cycle` is already the *next* cycle to execute, so
                    # an event due exactly then must clamp the skip to a
                    # no-op (>=); a head ready strictly in the past means
                    # dispatch is blocked on window capacity, which only
                    # a completion (min_complete) can clear.
                    ready = i_ready[ifq_head]
                    if ready >= cycle and (target < 0 or ready < target):
                        target = ready
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
        # Final front-end/window occupancy, exposed for diagnostics and
        # the parity harness (not part of the counter contract).
        self.debug_state = {
            "fetch_pc": fetch_pc, "fetch_stall": fetch_stall,
            "fetch_halted": fetch_halted, "ifq": ifq_count,
            "ruu": ruu_count, "seq": seq, "lsq": lsq_count,
            "ruu_rows": [
                (r_seq[s], r_pc[s], r_issued[s], r_done[s],
                 r_comp[s] if r_issued[s] else -1)
                for s in ((ruu_head + j) % ruu_cap
                          for j in range(ruu_count))
            ],
        }
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
