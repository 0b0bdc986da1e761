"""A6: hardware cost vs benefit of each repair mechanism.

Joins the storage-cost model (bits of shadow state per in-flight
branch, extra stack bits) with the measured hit rates: the paper's
pointer+contents proposal sits at the knee — ~69 bits per branch buys
within a point or two of a full checkpoint that would cost >2000 bits
per branch.
"""

from repro.core.tables import ablation_hardware_cost


def test_hardware_cost_benefit(emit, bench_scale, bench_seed):
    table = ablation_hardware_cost(seed=bench_seed, scale=bench_scale)
    emit("ablation_hardware_cost", table)
    rows = {row[0]: row for row in table[2]}
    contents = rows["tos-pointer-contents"]
    full = rows["full-stack"]
    # the knee: within a few points of full at a tiny fraction of cost.
    assert contents[4] > full[4] - 5.0
    assert contents[1] < full[1] / 10
