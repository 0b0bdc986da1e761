"""T1: the baseline machine model (paper Table 1)."""

from repro.core import table1


def test_table1_baseline_config(emit):
    table = table1()
    text = emit("table1_config", table)
    assert len(table[2]) == 14  # one row per single-path machine parameter
    assert "return-address stack" in text
    assert "GAg" in text
