"""T2: benchmark summary (paper Table 2).

Dynamic instruction counts, call/return density and call depth for the
eight SPECint95-inspired synthetic workloads.
"""

from repro.core.tables import table2_workloads


def test_table2_workload_summary(benchmark, emit, bench_scale, bench_seed):
    table = benchmark.pedantic(
        table2_workloads,
        kwargs={"seed": bench_seed, "scale": bench_scale},
        rounds=1, iterations=1,
    )
    emit("table2_workloads", table)
    # the paper's workload contrasts: li is call-dense, ijpeg is not.
    rows = {row[0]: row for row in table[2]}
    assert rows["li"][5] > rows["ijpeg"][5]
