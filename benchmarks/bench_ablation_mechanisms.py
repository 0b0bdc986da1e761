"""A1: the full mechanism zoo, including related-work variants.

Valid bits (Pentium-style detection with BTB fallback) and Jourdan-style
self-checkpointing join the four primary mechanisms. Self-checkpointing
should approach full-stack quality — the paper notes it achieves the
effect of full checkpointing at the cost of extra physical entries.
"""

from repro.config import RepairMechanism
from repro.core import ablation_mechanisms


def test_ablation_all_mechanisms(emit, bench_scale, bench_seed):
    table = ablation_mechanisms(seed=bench_seed, scale=bench_scale)
    emit("ablation_mechanisms", table)
    mechanisms = list(RepairMechanism)
    self_ck = mechanisms.index(RepairMechanism.SELF_CHECKPOINT) + 1
    none = mechanisms.index(RepairMechanism.NONE) + 1
    full = mechanisms.index(RepairMechanism.FULL_STACK) + 1
    for row in table[2]:
        assert row[self_ck] > row[none], row[0]
        assert row[self_ck] >= row[full] - 10.0, row[0]
