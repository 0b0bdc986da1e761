"""A4: corruption-cause breakdown of return mispredictions.

Reproduces the paper's Section 4 argument quantitatively: classify each
committed return by the weakest repair that would have predicted it.
The `needs_full` + `unrepairable` tail must be tiny — that is *why*
checkpointing one pointer and one address captures nearly all of full
checkpointing's benefit.
"""

from repro.core.tables import analysis_corruption


def test_corruption_breakdown(emit, bench_scale, bench_seed):
    table = analysis_corruption(seed=bench_seed, scale=bench_scale)
    emit("analysis_corruption", table)
    for row in table[2]:
        needs_full, unrepairable = row[-2], row[-1]
        assert (needs_full or 0) + (unrepairable or 0) < 10.0, row[0]
