"""A10: BTB capacity cannot buy back the return-address stack.

Table 4's poor BTB-only return prediction is structural — a BTB stores
one target per return site, and returns have many callers — so growing
the BTB saturates well below what even a small RAS achieves.
"""

from repro.core.tables import ablation_btb_capacity


def test_ablation_btb_capacity(emit, bench_scale, bench_seed):
    table = ablation_btb_capacity(seed=bench_seed, scale=bench_scale)
    emit("ablation_btb_capacity", table)
    for row in table[2]:
        name, *accuracies = row
        ras = accuracies[-1]
        biggest_btb = accuracies[-2]
        smallest_btb = accuracies[0]
        # capacity helps a little at the bottom end...
        assert biggest_btb >= smallest_btb - 2.0, name
        # ...but saturates far below the RAS.
        assert ras > biggest_btb + 15.0, name
