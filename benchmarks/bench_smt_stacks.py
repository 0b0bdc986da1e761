"""A9: SMT — per-thread return-address stacks are a necessity.

The paper's related work (Hily & Seznec): in a simultaneously
multithreaded processor, "because calls and returns from different
threads can be interleaved, they find per-thread stacks are a
necessity". Heterogeneous threads (different seeds) expose the full
contention; a shared stack collapses while per-thread stacks match the
single-thread baseline.
"""

from repro.core.tables import smt_stacks


def test_smt_stack_organisations(emit, bench_scale, bench_seed):
    table = smt_stacks(seed=bench_seed, scale=bench_scale)
    emit("smt_stacks", table)
    for name, threads, shared, per_thread in table[2]:
        assert per_thread > 90.0, (name, threads)
        assert shared < per_thread - 20.0, (name, threads)
