"""A2: limited shadow-checkpoint slots.

The paper observes the shadow state is limited — 4 in-flight branches
on the MIPS R10000, ~20 on the Alpha 21264. Branches predicted while
the pool is exhausted carry no checkpoint, so their mispredictions
cannot repair the stack; accuracy should rise with the slot budget and
saturate near the unlimited case by ~20 slots.
"""

from repro.core import ablation_shadow_slots


def test_ablation_shadow_checkpoint_slots(emit, bench_scale, bench_seed):
    table = ablation_shadow_slots(seed=bench_seed, scale=bench_scale)
    emit("ablation_shadow_slots", table)
    for row in table[2]:
        name, *accuracies = row
        one_slot, unlimited = accuracies[0], accuracies[-1]
        twenty = accuracies[-2]
        assert unlimited >= one_slot, name
        assert abs(twenty - unlimited) < 5.0, name  # 21264-like is enough
