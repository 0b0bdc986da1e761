"""T2: benchmark summary (paper Table 2).

Dynamic instruction counts, call/return density and call depth for the
eight SPECint95-inspired synthetic workloads.
"""

from repro.core.tables import table2_workloads


def test_table2_workload_summary(emit, bench_scale, bench_seed):
    table = table2_workloads(seed=bench_seed, scale=bench_scale)
    emit("table2_workloads", table)
    # the paper's workload contrasts: li is call-dense, ijpeg is not.
    rows = {row[0]: row for row in table[2]}
    assert rows["li"][5] > rows["ijpeg"][5]
