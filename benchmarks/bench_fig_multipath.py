"""F4: stack organisations under multipath execution.

The paper's final figure: 2-path and 4-path relative performance,
normalised to the unified-stack case at the same path count. Per-path
stacks eliminate contention entirely (the paper reports gains of over
25% on call-dense workloads); full-stack checkpointing of a unified
stack does NOT help, because contention is not a wrong-path effect.
"""

from repro.core import fig_multipath


def test_fig_multipath_stack_organisations(emit, bench_seed):
    table = fig_multipath(seed=bench_seed)
    emit("fig_multipath", table)
    rows = table[2]
    # Columns: benchmark, paths, unified, unified-checkpoint, per-path
    # (relative ipc), then return accuracies in the same order.
    per_path_gains = [row[4] for row in rows]
    assert max(per_path_gains) > 1.05, "per-path should win somewhere big"
    for row in rows:
        name, paths = row[0], row[1]
        unified_rel, checkpoint_rel, per_path_rel = row[2], row[3], row[4]
        unified_acc, checkpoint_acc, per_path_acc = row[5], row[6], row[7]
        # Per-path never loses meaningfully to unified.
        assert per_path_rel > 0.97, (name, paths)
        # Contention wrecks shared stacks; private stacks do not care.
        assert per_path_acc > unified_acc + 10.0, (name, paths)
        # Full checkpointing does not rescue the unified stack.
        assert checkpoint_acc < per_path_acc - 10.0, (name, paths)
