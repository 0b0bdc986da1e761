"""A3: cross-check — the front-end model vs the cycle model.

The front-end model replaces cycle-accurate wrong-path timing with a
bounded wrong-path replay; its hit-rate *ordering* across mechanisms
must match the cycle model's, or the stack-depth sweep (which uses it)
would not be trustworthy.
"""

from repro.core import ablation_fastsim_crosscheck


def test_ablation_fastsim_crosscheck(benchmark, emit, bench_scale, bench_seed):
    table = benchmark.pedantic(
        ablation_fastsim_crosscheck,
        kwargs={"seed": bench_seed, "scale": bench_scale},
        rounds=1, iterations=1,
    )
    emit("ablation_fastsim", table)
    by_benchmark = {}
    for name, mechanism, cycle_acc, fast_acc in table[2]:
        by_benchmark.setdefault(name, []).append((mechanism, cycle_acc, fast_acc))
    for name, entries in by_benchmark.items():
        cycle_order = [m for m, c, f in sorted(entries, key=lambda e: e[1])]
        fast_order = [m for m, c, f in sorted(entries, key=lambda e: e[2])]
        # Both models must agree on the winner and the loser.
        assert cycle_order[-1] == fast_order[-1], name
        assert cycle_order[0] == fast_order[0], name
