"""Shared helpers for the bench targets.

Each bench target regenerates one table or figure of the paper and
checks its shape: it builds the rows once, prints them, and writes the
rendered table to ``benchmarks/out/<name>.txt`` so it survives pytest's
capture. The targets time nothing but the three engine-vs-engine speed
floors; the speed of regenerating the tables is measured by
``benchmarks/perf`` (see its README). Scale and seed come from
REPRO_SCALE / REPRO_SEED, read through :mod:`repro.config.env`.
"""

from __future__ import annotations

import pathlib

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture()
def emit():
    """Check that a table has rows, all as wide as its headers; print it
    and write the rendered text to benchmarks/out/."""
    from repro.stats.tables import format_table

    OUT_DIR.mkdir(exist_ok=True)

    def _emit(name: str, table_data) -> str:
        title, headers, rows = table_data
        assert rows, f"{name}: the table has no rows"
        ragged = [row for row in rows if len(row) != len(headers)]
        assert not ragged, (
            f"{name}: rows {ragged} do not match the {len(headers)} headers")
        text = format_table(headers, rows, title=title)
        print()
        print(text)
        (OUT_DIR / f"{name}.txt").write_text(text + "\n")
        return text

    return _emit


@pytest.fixture(scope="session")
def bench_scale() -> float:
    from repro.config import env

    return env.scale()


@pytest.fixture(scope="session")
def bench_seed() -> int:
    from repro.config import env

    return env.seed()
