"""A5: RAS vs general indirect-branch predictors on returns.

The paper (related work): target-history mechanisms "can potentially
capture caller history well enough to distinguish among possible return
targets. These general mechanisms, however, do not achieve the
near-100% accuracies possible with a return-address stack."
"""

from repro.core.tables import analysis_return_predictors


def test_return_predictor_comparison(emit, bench_scale, bench_seed):
    table = analysis_return_predictors(seed=bench_seed, scale=bench_scale)
    emit("analysis_return_predictors", table)
    headers = table[1]
    ras_col = headers.index("ras %")
    general_cols = [i for i, h in enumerate(headers)
                    if h.endswith("%") and i != ras_col]
    for row in table[2]:
        best_general = max(row[i] for i in general_cols if row[i] is not None)
        assert row[ras_col] > best_general, row[0]
