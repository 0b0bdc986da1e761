"""T4: return prediction without a RAS (paper Table 4).

The paper: without a return-address stack, return addresses are found
in the BTB "only a little over half the time", and a well-designed
stack produces speedups of up to 15% versus BTB-only prediction.
"""

from repro.core import table4_btb_only
from repro.workloads.profiles import BENCHMARK_NAMES


def test_table4_btb_only_returns(emit, bench_scale, bench_seed):
    table = table4_btb_only(seed=bench_seed, scale=bench_scale)
    emit("table4_btb_only", table)
    rows = table[2]
    assert len(rows) == len(BENCHMARK_NAMES)
    btb_only = [row[1] for row in rows if row[1] is not None]
    with_ras = [row[2] for row in rows if row[2] is not None]
    # BTB-only lands around half; the RAS beats it everywhere on average.
    assert sum(btb_only) / len(btb_only) < 80.0
    assert sum(with_ras) / len(with_ras) > sum(btb_only) / len(btb_only)
