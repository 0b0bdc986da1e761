"""F1: return-address-stack hit rate by repair mechanism.

Expected shape (paper Section 4): no repair is badly corrupted by
wrong-path execution; restoring the TOS pointer recovers most of it;
the paper's pointer+contents mechanism achieves nearly 100%; full-stack
checkpointing is the 100% upper bound.
"""

from repro.core import fig_hit_rates
from repro.workloads.profiles import BENCHMARK_NAMES


def test_fig_hit_rates_by_mechanism(emit, bench_scale, bench_seed):
    table = fig_hit_rates(seed=bench_seed, scale=bench_scale)
    emit("fig_hit_rates", table)
    assert len(table[2]) == len(BENCHMARK_NAMES)
    rows = [row for row in table[2] if None not in row[1:]]
    assert rows, "every benchmark must execute returns"
    for row in rows:
        name, none, tos_ptr, tos_contents, full = row
        assert none <= tos_contents + 1e-9, name
        assert tos_contents >= 85.0, name       # "nearly 100%"
        assert full >= 99.0, name               # upper bound
