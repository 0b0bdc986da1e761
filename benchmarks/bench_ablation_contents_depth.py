"""A8: how many top entries should the checkpoint save?

The paper proposes saving one (pointer + top contents) and notes that
saving more approaches full-stack checkpointing. This sweep shows the
diminishing returns: k=1 captures most of the benefit, a couple more
entries close nearly all of the remaining gap, and k=ras_entries
matches the full checkpoint exactly.
"""

from repro.core.tables import ablation_contents_depth


def test_ablation_contents_depth(emit, bench_scale, bench_seed):
    table = ablation_contents_depth(seed=bench_seed, scale=bench_scale)
    emit("ablation_contents_depth", table)
    for row in table[2]:
        name, *accuracies = row
        full = accuracies[-1]
        depth_curve = accuracies[:-1]
        # saving the whole stack via contents == full-stack checkpoint.
        assert depth_curve[-1] == full, name
        # weak monotonicity along the depth curve (small noise allowed).
        for shallow, deep in zip(depth_curve, depth_curve[1:]):
            assert deep >= shallow - 1.0, name