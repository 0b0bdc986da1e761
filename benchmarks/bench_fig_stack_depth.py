"""F3: sensitivity to return-address-stack depth.

Small stacks overflow under deep call chains (worst for the recursive
`li` and the chain-y `vortex`); the curves flatten by 16-32 entries —
the paper's argument for the 21264's move from 12 to 32 entries.
"""

from repro.core import fig_stack_depth

_NAMES = ("li", "vortex", "gcc")
_SIZES = (1, 2, 4, 8, 12, 16, 32, 64)


def test_fig_stack_depth_sensitivity(emit, bench_seed):
    table = fig_stack_depth(names=_NAMES, sizes=_SIZES, seed=bench_seed)
    emit("fig_stack_depth", table)
    assert len(table[2]) == len(_NAMES)
    for row in table[2]:
        name, *accuracies = row
        # Deeper stacks never hurt much: the 32-entry point must beat
        # the 1-entry point decisively, and 64 ~ 32 (flattened).
        assert accuracies[-2] > accuracies[0] + 5.0, name
        assert abs(accuracies[-1] - accuracies[-2]) < 5.0, name
