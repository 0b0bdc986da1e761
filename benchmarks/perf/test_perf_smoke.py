"""Smoke test of the repository benchmark (benchmarks/perf).

Runs every workload at ``--smoke`` size, untraced and traced, and checks
the output contract: every metric BENCHMARK.json names is emitted with
its unit, no operation fails, the tracer finds every site, and no
``REPRO_*`` setting of the calling environment (CI sets REPRO_SCALE and
REPRO_JOBS) reaches the measured processes.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
from child import WORKLOADS  # noqa: E402


def _run(out: pathlib.Path, *args: str, cwd: pathlib.Path = ROOT):
    env = dict(os.environ, REPRO_SCALE="0.05", REPRO_JOBS="2")
    return subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--out", str(out), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf")
    results = {}
    for trace in (0, 1):
        done = _run(out, "--smoke", "--seconds", "1", "--trace", str(trace))
        assert done.returncode == 0, done.stdout + done.stderr
        lines = done.stdout.strip().splitlines()[-len(WORKLOADS):]
        results[trace] = [json.loads(line) for line in lines]
    records = {
        (workload, trace): json.loads(
            (out / f"{workload}.seed1.smoke.trace{trace}.json").read_text())
        for workload in WORKLOADS for trace in (0, 1)}
    return results, records


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(smoke, trace, section):
    results, _ = smoke
    expected = {spec["name"]: spec["unit"] for spec in BENCH[section]}
    for result in results[trace]:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {name: metric["unit"] for name, metric
                in result["metrics"].items()} == expected
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float))


def test_tracer_finds_every_site(smoke):
    _, records = smoke
    for workload in WORKLOADS:
        assert records[workload, 1]["absent"] == []


def test_repro_environment_does_not_reach_children(smoke):
    _, records = smoke
    for record in records.values():
        assert record["repro_env"] == []


def test_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path / "out", "--workload", "cycle-tables",
                cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_tracer_restores_every_original():
    sys.path.insert(0, str(ROOT / "src"))
    import repro.bpred.ras as ras
    import repro.cli as cli
    from layers import Tracer

    before = (cli.main, vars(ras.CircularRas)["push"])
    with Tracer() as tracer:
        assert cli.main is not before[0]
        assert vars(ras.CircularRas)["push"] is not before[1]
    assert (cli.main, vars(ras.CircularRas)["push"]) == before
    assert tracer.absent == []
