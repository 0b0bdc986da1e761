"""F2: IPC speedup from stack repair.

The paper: pointer+contents repair improves performance by up to ~8.7%
over a stack with no repair mechanism, and a well-designed stack gives
up to ~15% over BTB-only return prediction. Magnitudes vary with the
workload's call density; the sign and ordering are the reproducible
shape.
"""

from repro.core import fig_speedup


def test_fig_speedup_from_repair(emit, bench_scale, bench_seed):
    table = fig_speedup(seed=bench_seed, scale=bench_scale)
    emit("fig_speedup", table)
    rows = table[2]
    vs_none = [row[4] for row in rows]
    vs_btb = [row[5] for row in rows]
    # Repair helps on average, and at least one call-dense workload
    # shows a multi-percent gain on both baselines.
    assert sum(vs_none) / len(vs_none) > 0.0
    assert max(vs_none) > 2.0
    assert max(vs_btb) > 4.0
