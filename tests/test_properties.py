"""Property-based tests (hypothesis) for the core data structures.

These pin down the invariants everything else leans on: stack LIFO
behaviour within capacity, checkpoint/restore round-trips, undo-log
exactness, copy-on-write fork isolation, and predictor-table bounds.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.bpred import ChampSimRas, CircularRas, LinkedRas
from repro.bpred.twobit import CounterTable
from repro.caches import Cache
from repro.config import CacheConfig, RepairMechanism
from repro.emu import MachineState
from repro.workloads import DeterministicRng

# ---------------------------------------------------------------------------
# Strategies.

addresses = st.integers(min_value=0, max_value=2 ** 20)
values = st.integers(min_value=0, max_value=2 ** 64 - 1)
#: push(value) or pop()
stack_ops = st.lists(
    st.one_of(st.tuples(st.just("push"), addresses), st.just("pop")),
    max_size=60,
)


class TestStackProperties:
    @given(ops=stack_ops)
    def test_within_capacity_ras_is_a_plain_stack(self, ops):
        """While depth stays within [0, capacity], every mechanism's
        circular RAS behaves exactly like a Python list stack."""
        ras = CircularRas(64, RepairMechanism.FULL_STACK)
        model = []
        for op in ops:
            if op == "pop":
                if not model:
                    continue  # skip underflow: outside the property
                assert ras.pop() == model.pop()
            else:
                _, value = op
                if len(model) == 64:
                    continue  # skip overflow
                ras.push(value)
                model.append(value)
        assert ras.logical_entries() == list(reversed(model))

    @given(setup=st.lists(addresses, min_size=1, max_size=40),
           wrong_path=stack_ops)
    def test_full_stack_checkpoint_roundtrip(self, setup, wrong_path):
        """FULL_STACK: restore undoes *any* intervening activity."""
        ras = CircularRas(16, RepairMechanism.FULL_STACK)
        for value in setup:
            ras.push(value)
        before = ras.logical_entries()
        token = ras.checkpoint()
        for op in wrong_path:
            if op == "pop":
                ras.pop()
            else:
                ras.push(op[1])
        ras.restore(token)
        assert ras.logical_entries() == before

    @given(setup=st.lists(addresses, min_size=1, max_size=40),
           wrong_path=stack_ops)
    def test_pointer_contents_restores_the_top(self, setup, wrong_path):
        """TOS_POINTER_AND_CONTENTS: whatever the wrong path does, the
        *top* entry after restore equals the checkpointed top."""
        ras = CircularRas(16, RepairMechanism.TOS_POINTER_AND_CONTENTS)
        for value in setup:
            ras.push(value)
        top_before = ras.top()
        token = ras.checkpoint()
        for op in wrong_path:
            if op == "pop":
                ras.pop()
            else:
                ras.push(op[1])
        ras.restore(token)
        assert ras.top() == top_before

    @given(setup=st.lists(addresses, min_size=1, max_size=12),
           wrong_path=stack_ops)
    def test_linked_ras_pointer_restore_is_full_restore(self, setup, wrong_path):
        """Self-checkpointing with ample overprovision: a pointer-only
        restore recovers the entire logical stack."""
        ras = LinkedRas(16, overprovision=16)  # pool >> any activity here
        for value in setup:
            ras.push(value)
        before = ras.logical_entries()
        token = ras.checkpoint()
        for op in wrong_path:
            if op == "pop":
                ras.pop()
            else:
                ras.push(op[1])
        ras.restore(token)
        assert ras.logical_entries() == before

    @given(ops=stack_ops)
    def test_clone_equivalence(self, ops):
        """A clone replays identically to the original."""
        ras = CircularRas(8, RepairMechanism.VALID_BITS)
        for op in ops:
            if op == "pop":
                ras.pop()
            else:
                ras.push(op[1])
        twin = ras.clone()
        assert twin.logical_entries() == ras.logical_entries()
        assert twin.pop() == ras.pop()


class TestCommittedKernelProperties:
    """``CircularRas.replay_committed`` equals per-operation replay.

    Streams are seeded with the call/return imbalance patterns of
    ret2spec and Spectre Returns: underflow runs (returns with nothing
    pushed) and call chains deeper than the stack (overflow, then an
    unwind past the surviving entries).
    """

    CALL, RETURN = 0, 1
    KERNEL_REPAIRS = (RepairMechanism.NONE, RepairMechanism.TOS_POINTER,
                      RepairMechanism.TOS_POINTER_AND_CONTENTS,
                      RepairMechanism.FULL_STACK)

    @st.composite
    def streams(draw):
        """``(size, [(class, pc, next_pc)])``: balanced stretches, underflow
        runs and over-deep call chains, in any order."""
        size = draw(st.integers(1, 70))
        rng = DeterministicRng(draw(st.integers(1, 2 ** 31)))
        shadow, events = [], []

        def call():
            pc = 4 * rng.randint(0, 2 ** 18)
            shadow.append(pc + 4)
            events.append((0, pc, 4 * rng.randint(0, 2 ** 18)))

        def ret(faithful=True):
            target = (shadow.pop() if shadow and faithful
                      else 4 * rng.randint(0, 2 ** 18))
            events.append((1, 4 * rng.randint(0, 2 ** 18), target))

        kinds = st.sampled_from(["mixed", "underflow", "deep"])
        for kind in draw(st.lists(kinds, min_size=1, max_size=5)):
            if kind == "underflow":
                shadow.clear()
                for _ in range(draw(st.integers(1, 2 * size + 2))):
                    ret(faithful=False)
            elif kind == "deep":
                depth = draw(st.integers(size + 1, 2 * size + 4))
                for _ in range(depth):
                    call()
                for _ in range(depth):
                    ret()
            else:
                for _ in range(draw(st.integers(0, 40))):
                    if rng.randint(0, 1):
                        call()
                    else:
                        ret(faithful=rng.randint(0, 7) > 0)
        return size, events

    @staticmethod
    def per_operation(ras, events):
        returns = hits = 0
        for cls, pc, next_pc in events:
            if cls == 1:
                returns += 1
                hits += ras.retire_return(next_pc) == next_pc
            else:
                ras.push(pc + 4)
        return returns, hits

    @staticmethod
    def counters(ras):
        return [ras.stats[name].value
                for name in ("pushes", "pops", "overflows", "underflows")]

    @settings(max_examples=150, deadline=None)
    @given(stream=streams(), repair=st.sampled_from(KERNEL_REPAIRS),
           cuts=st.lists(st.integers(0, 10 ** 6), max_size=6),
           after=st.lists(st.one_of(st.tuples(st.just("push"), addresses),
                                    st.just("pop")), min_size=1, max_size=8))
    def test_blocks_equal_per_operation_replay(self, stream, repair, cuts,
                                                after):
        size, events = stream
        kernel = CircularRas(size, repair)
        twin = CircularRas(size, repair)
        bounds = sorted({0, len(events)}
                        | {cut % (len(events) + 1) for cut in cuts})
        returns = hits = 0
        for start, stop in zip(bounds, bounds[1:]):
            block = events[start:stop]
            got = kernel.replay_committed([e[0] for e in block],
                                          [e[1] for e in block],
                                          [e[2] for e in block], self.RETURN)
            returns += got[0]
            hits += got[1]
        assert (returns, hits) == self.per_operation(twin, events)
        assert self.counters(kernel) == self.counters(twin)
        assert kernel.logical_entries() == twin.logical_entries()
        assert kernel.depth == twin.depth
        for op in after:
            if op == "pop":
                assert kernel.pop() == twin.pop()
            else:
                kernel.push(op[1])
                twin.push(op[1])
            assert kernel.logical_entries() == twin.logical_entries()
        assert self.counters(kernel) == self.counters(twin)

    def test_no_kernel_where_a_pop_can_miss(self):
        """Valid bits, the linked pool and ChampSim step per operation."""
        for ras in (CircularRas(4, RepairMechanism.VALID_BITS),
                    LinkedRas(4), ChampSimRas(4)):
            assert not ras.always_predicts
            assert ras.replay_committed([0], [8], [0], self.RETURN) is None
            assert self.counters(ras) == [0, 0, 0, 0]


class TestUndoLogProperties:
    write_ops = st.lists(
        st.one_of(
            st.tuples(st.just("r"), st.integers(0, 31), values),
            st.tuples(st.just("m"), addresses, values),
        ),
        max_size=60,
    )

    @given(initial=st.dictionaries(addresses, values, max_size=10),
           ops=write_ops)
    def test_rewind_restores_exact_state(self, initial, ops):
        state = MachineState(initial_memory=initial)
        regs_before = list(state.regs)
        memory_before = dict(state.memory)
        log = []
        for op in ops:
            if op[0] == "r":
                state.write_reg(op[1], op[2], log)
            else:
                state.write_mem(op[1], op[2], log)
        state.rewind(log)
        assert state.regs == regs_before
        assert state.memory == memory_before

    @given(parent_writes=st.dictionaries(addresses, values, max_size=10),
           child_writes=st.dictionaries(addresses, values, max_size=10))
    def test_fork_isolation(self, parent_writes, child_writes):
        parent = MachineState()
        for address, value in parent_writes.items():
            parent.write_mem(address, value)
        child = parent.fork()
        for address, value in child_writes.items():
            child.write_mem(address, value)
        # Parent view is untouched by child writes.
        for address, value in parent_writes.items():
            assert parent.read_mem(address) == value
        # Child view overlays parent's.
        for address in set(parent_writes) | set(child_writes):
            expected = child_writes.get(address, parent_writes.get(address, 0))
            assert child.read_mem(address) == expected


class TestPredictorTableProperties:
    @given(keys=st.lists(st.tuples(st.integers(0, 10 ** 6), st.booleans()),
                         max_size=200))
    def test_counter_table_stays_in_range(self, keys):
        table = CounterTable(64, bits=2)
        for key, outcome in keys:
            table.update(key, outcome)
            assert 0 <= table.value(key) <= 3

    @given(seq=st.lists(addresses, max_size=200))
    def test_cache_repeat_access_hits(self, seq):
        cache = Cache(CacheConfig("p", 1024, 2, 64, 1))
        for address in seq:
            cache.access(address)
            assert cache.access(address)  # immediate re-access must hit


class TestRngProperties:
    @given(seed=st.integers(0, 2 ** 32), low=st.integers(-1000, 1000),
           span=st.integers(0, 1000))
    def test_randint_bounds(self, seed, low, span):
        rng = DeterministicRng(seed)
        for _ in range(20):
            value = rng.randint(low, low + span)
            assert low <= value <= low + span

    @given(seed=st.integers(0, 2 ** 32),
           items=st.lists(st.integers(), max_size=50))
    def test_shuffle_is_permutation(self, seed, items):
        rng = DeterministicRng(seed)
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == sorted(items)

    @given(seed=st.integers(0, 2 ** 32))
    def test_same_seed_same_stream(self, seed):
        a = DeterministicRng(seed)
        b = DeterministicRng(seed)
        assert [a.bits(16) for _ in range(10)] == [b.bits(16) for _ in range(10)]


class TestEndToEndProperties:
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(1, 50),
           name=st.sampled_from(["li", "go", "m88ksim"]))
    def test_generated_programs_terminate_balanced(self, seed, name):
        from repro.emu import Emulator
        from repro.workloads import build_workload
        program = build_workload(name, seed=seed, scale=0.05)
        stats = Emulator(program, max_instructions=2_000_000).run()
        assert stats.halted
        assert stats.calls == stats.returns

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(1, 30),
           mechanism=st.sampled_from(list(RepairMechanism)))
    def test_pipeline_commits_golden_stream(self, seed, mechanism):
        from repro.config import baseline_config
        from repro.emu import Emulator
        from repro.pipeline import SinglePathCPU
        from repro.workloads import build_workload
        program = build_workload("go", seed=seed, scale=0.03)
        golden = [(r.pc, r.next_pc) for r in Emulator(program).trace()]
        committed = []
        cpu = SinglePathCPU(
            program, baseline_config().with_repair(mechanism),
            commit_hook=lambda e: committed.append(
                (e.pc, e.pc if e.outcome.is_halt else e.outcome.next_pc)),
        )
        cpu.run()
        assert committed == golden
