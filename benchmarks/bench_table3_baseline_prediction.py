"""T3: baseline control-flow prediction on the cycle model."""

from repro.core import table3_baseline
from repro.workloads.profiles import BENCHMARK_NAMES


def test_table3_baseline_prediction(emit, bench_scale, bench_seed):
    table = table3_baseline(seed=bench_seed, scale=bench_scale)
    text = emit("table3_baseline_prediction", table)
    rows = table[2]
    assert len(rows) == len(BENCHMARK_NAMES)
    # With pointer+contents repair the baseline should predict returns
    # at near-paper accuracy on every benchmark.
    for row in rows:
        assert row[4] is None or row[4] > 80.0
