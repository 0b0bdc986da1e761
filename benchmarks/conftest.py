"""Shared helpers for the benchmark harness.

Each bench target regenerates one table or figure of the paper: it
builds the rows once (inside the timed benchmark call), prints them,
and also persists them under ``benchmarks/out/`` so the output survives
pytest's capture — both as the rendered text table and as a
machine-readable ``BENCH_<name>.json`` (rows + wall time + scale/seed
metadata; format documented in docs/performance.md) so the perf
trajectory can be tracked across commits. Scale and seed come from
REPRO_SCALE / REPRO_SEED, read through :mod:`repro.config.env`.
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"

#: Bump when the BENCH_*.json layout changes.
BENCH_JSON_SCHEMA = 1


@pytest.fixture()
def emit(bench_scale, bench_seed):
    """Print a rendered table and persist text + JSON to benchmarks/out/.

    Function-scoped so the wall time it records covers just the calling
    bench target (fixture setup to emit call, i.e. including the timed
    benchmark rounds).
    """
    from repro.stats.tables import format_table

    OUT_DIR.mkdir(exist_ok=True)
    started = time.perf_counter()

    def _emit(name: str, table_data) -> str:
        title, headers, rows = table_data
        text = format_table(headers, rows, title=title)
        print()
        print(text)
        (OUT_DIR / f"{name}.txt").write_text(text + "\n")
        payload = {
            "schema": BENCH_JSON_SCHEMA,
            "name": name,
            "title": title,
            "headers": list(headers),
            "rows": [list(row) for row in rows],
            "wall_time_s": round(time.perf_counter() - started, 3),
            "scale": bench_scale,
            "seed": bench_seed,
        }
        (OUT_DIR / f"BENCH_{name}.json").write_text(
            json.dumps(payload, indent=2, default=str) + "\n")
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
