"""A7: repair payoff vs direction-predictor quality.

The RAS corruption the paper studies is *caused* by direction
mispredictions, so unrepaired return accuracy should track conditional-
branch accuracy across predictor families. (A measurement note: on
these synthetic workloads bimodal can *beat* the history predictors —
LCG-driven branches carry a bias but no history signal, and history
predictors fragment the bias across many cold pattern-table entries.
The invariant is the coupling, not any fixed family ordering.)
"""

from repro.core.tables import ablation_direction_predictors


def test_ablation_direction_predictors(emit, bench_scale, bench_seed):
    table = ablation_direction_predictors(seed=bench_seed, scale=bench_scale)
    emit("ablation_direction", table)
    by_benchmark = {}
    for row in table[2]:
        by_benchmark.setdefault(row[0], {})[row[1]] = row
    for name, kinds in by_benchmark.items():
        rows = list(kinds.values())
        # Repaired return accuracy stays high regardless of the
        # direction predictor...
        for row in rows:
            assert row[4] > 85.0, (name, row)
        # ...and corruption pressure tracks misprediction rate: when a
        # family clearly mispredicts less, its unrepaired stack cannot
        # be clearly worse.
        for a in rows:
            for b in rows:
                if a[2] > b[2] + 2.0:          # a predicts clearly better
                    assert a[3] >= b[3] - 3.0, (name, a, b)
