"""The repository benchmark: end-to-end and per-layer numbers per workload.

Run from the repository root::

    python3 benchmarks/perf/run.py --workload cycle-tables --seed 1
    python3 benchmarks/perf/run.py --workload cycle-tables --seed 1 --trace 1
    python3 benchmarks/perf/compare.py parent-out/ change-out/

Each workload runs in fresh child processes (``child.py``), one at a
time. ``--trace 0`` measures the end-to-end metrics: set-up time is the
median over ``SETUP_SAMPLES`` separate set-ups, the other metrics come
from one closed-loop measured phase of ``--seconds``. ``--trace 1`` is
a separate run that adds the per-layer numbers from the outside-in
tracer (``layers.py``). Every command's ``--json`` rows are checked, and
for seeds with committed digests (``digests.json``) compared exactly.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the ``end_to_end`` metrics of
BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``). The full run record goes to ``--out``. Exit status is 0
only when every operation succeeded and every check passed.
"""

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from child import WORKLOADS
from layers import render

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Set-up is measured this many times per run, in separate processes
#: (import time only shows in a fresh interpreter); the median counts.
SETUP_SAMPLES = 3

#: A run (all its processes) must finish within this many seconds.
RUN_BUDGET_S = 175.0

DIGESTS = HERE / "digests.json"

#: The canary time (``child.Canary``) of a quiet host; throughput is
#: reported as if every round had run on such a host.
CANARY_REF_MS = 1.15


def child_env(work: pathlib.Path) -> Dict[str, str]:
    """The parent environment minus every ``REPRO_*`` knob, plus a fresh
    cache root, the checkout's sources and single-threaded BLAS."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(
        REPRO_CACHE_DIR=str(work / "cache0"),
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        TMPDIR=str(work),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(args: argparse.Namespace, workload: str, out: pathlib.Path,
              deadline: float, setup_only: bool = False,
              spans: Optional[pathlib.Path] = None) -> Optional[dict]:
    """One fresh child process; its JSON record, or None if it failed."""
    work = out / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work", str(work)]
    if setup_only:
        command.append("--setup-only")
    if args.smoke:
        command.append("--smoke")
    if spans is not None:
        command += ["--spans", str(spans)]
    try:
        finished = subprocess.run(
            command, env=child_env(work), stdout=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        print(f"{workload}: child timed out", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = finished.stdout.strip().splitlines()
    if finished.returncode != 0 or not lines:
        print(f"{workload}: child exited {finished.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def quantile_summary(samples: List[float]) -> Dict[str, object]:
    """Median plus the highest percentile with ten samples beyond it."""
    summary: Dict[str, object] = {"n": len(samples)}
    if samples:
        summary["p50"] = statistics.median(samples)
    for level in (99, 90, 75):
        if len(samples) * (100 - level) >= 1000:
            cuts = statistics.quantiles(samples, n=100)
            summary[f"p{level}"] = cuts[level - 1]
            break
    return summary


def end_to_end(record: dict, setup_samples: List[float]) -> Dict[str, float]:
    """``throughput`` is the median over measured rounds of the round's
    work per busy second, scaled to a host whose canary reads
    ``CANARY_REF_MS`` (see ``child.Canary``); ``throughput_raw`` is the
    unscaled total work over total busy time, for reference."""
    rounds: Dict[int, List[float]] = {}
    for command in record["commands"]:
        done = rounds.setdefault(command["round"], [0, 0.0])
        done[0] += command[record["work"]]  # see child.Plan.work
        done[1] += command["ms"] / 1e3
    scaled = [done / busy / 1e3 * canary / CANARY_REF_MS
              for (done, busy), canary
              in zip(rounds.values(), record["canary_ms"])]
    total, busy = map(sum, zip(*rounds.values()))
    return {
        "throughput": statistics.median(scaled),
        "throughput_raw": total / busy / 1e3,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def cache_probes(record: dict) -> "tuple[int, int]":
    """Result-cache hits and probes over the measured commands."""
    hits = sum(command["hits"] for command in record["commands"])
    return hits, hits + sum(command["misses"]
                            for command in record["commands"])


def per_layer(record: dict) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    for row in record["layers"]:
        metrics[f"{row['layer']}.share"] = row["share"]
        metrics[f"{row['layer']}.calls"] = row["calls"]
    hits, probes = cache_probes(record)
    metrics["executor.cache_hit_ratio"] = hits / probes if probes else 0.0
    return metrics


def ratios(record: dict) -> List[str]:
    """The diagnostic ratios of a run, each with its base."""
    commands = record["commands"]
    lines = []
    hits, probes = cache_probes(record)
    if probes:
        lines.append(f"executor.cache_hit_ratio = {hits / probes:.3f} "
                     f"({hits} hits / {probes} probes)")
    fetched = sum(command["fetched"] for command in commands)
    if fetched:
        squashed = sum(command["squashed"] for command in commands)
        lines.append(f"sim.squash_ratio = {squashed / fetched:.4f} "
                     f"({squashed} squashed / {fetched} fetched)")
    instructions = sum(command["instructions"] for command in commands)
    lines.append(f"sim.instructions = {instructions} over "
                 f"{len(commands)} commands")
    layers = {row["layer"]: row for row in record.get("layers", [])}
    reports = [command for command in commands
               if command["label"].startswith("corpus report")]
    decode = layers.get("batch.decode")
    if decode and reports:
        shards = reports[0].get("rows", 0)
        passes = decode["opens"] / (shards * len(reports) or 1)
        lines.append(f"batch.decode_passes = {passes:.2f} per shard per "
                     f"iteration ({decode['opens']} decodes / {shards} "
                     f"shards / {len(reports)} iterations; "
                     f"{decode['calls']} blocks decompressed)")
    return lines


def digests(record: dict) -> List[tuple]:
    """``(label, digest)`` of every checked and measured command."""
    return [(command["label"], command["digest"])
            for command in record.get("checks", []) + record["commands"]
            if "digest" in command]


def check_digests(record: dict, workload: str, seed: int,
                  record_new: bool) -> List[str]:
    """Compare each command's digest with the committed one, if any."""
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    known = table.setdefault(workload, {}).setdefault(str(seed), {})
    if record_new:
        known.update(digests(record))
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        return []
    return [f"{label}: rows differ from the committed digest"
            for label, digest in digests(record)
            if known.get(label, digest) != digest]


def compare_untraced(record: dict, untraced: dict) -> List[str]:
    """A traced run must produce exactly the untraced run's rows."""
    seen = dict(digests(untraced))
    return [f"{label}: traced rows differ from untraced"
            for label, digest in digests(record)
            if seen.get(label, digest) != digest]


def run_workload(args: argparse.Namespace, workload: str,
                 bench: dict) -> dict:
    out = pathlib.Path(args.out)
    stem = f"{workload}.seed{args.seed}{'.smoke' if args.smoke else ''}"
    deadline = time.perf_counter() + RUN_BUDGET_S
    setup_samples: List[float] = []
    attempted = failed = 0
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            sample = run_child(args, workload, out, deadline,
                               setup_only=True)
            attempted += sample["attempted"] if sample else 1
            failed += sample["failed"] if sample else 1
            if sample:
                setup_samples.append(sample["setup_s"])
    spans = out / f"{stem}.spans.jsonl" if args.trace else None
    record = run_child(args, workload, out, deadline, spans=spans)
    if record is None:
        return {"correct": False, "attempted": attempted + 1,
                "failed": failed + 1, "metrics": {}}
    attempted += record["attempted"]
    # committed digests are of full-size runs; smoke inputs differ
    extra = ([] if args.smoke else
             check_digests(record, workload, args.seed, args.record))
    untraced_path = out / f"{stem}.trace0.json"
    untraced = None
    if args.trace and untraced_path.exists():
        untraced = json.loads(untraced_path.read_text())
        extra += compare_untraced(record, untraced)
    if record["repro_env"]:
        extra.append(f"REPRO_* variables reached the child: "
                     f"{record['repro_env']}")
    failed += record["failed"] + len(extra)
    problems = record["problems"] + extra

    setup_samples.append(record["setup_s"])
    measured = end_to_end(record, setup_samples)
    section = "per_layer" if args.trace else "end_to_end"
    values = per_layer(record) if args.trace else measured
    metrics = {spec["name"]: {"value": values[spec["name"]],
                              "unit": spec["unit"]}
               for spec in bench[section]}
    result = {"correct": not problems and failed == 0,
              "attempted": attempted, "failed": min(failed, attempted),
              "metrics": metrics}

    latencies = quantile_summary([command["ms"]
                                  for command in record["commands"]])
    print(f"== {workload} seed={args.seed} trace={args.trace}: "
          f"{len(record['commands'])} commands, work = {record['work']}")
    for name, value in measured.items():
        print(f"  {name} = {value:.4f}")
    print(f"  cmd_ms = {json.dumps(latencies)}")
    print(f"  setup_s samples = {[round(s, 3) for s in setup_samples]}")
    print(f"  host.canary_ms = "
          f"{statistics.median(record['canary_ms']):.3f}")
    for line in ratios(record):
        print(f"  {line}")
    if args.trace:
        print(render(record["layers"]))
        if record["absent"]:
            print(f"  absent sites: {record['absent']}")
        if untraced is not None:
            base = untraced["end_to_end"]["throughput"]
            print(f"  tracing overhead = "
                  f"{base / measured['throughput'] - 1:.1%} "
                  f"(untraced vs traced throughput)")
    for problem in problems:
        print(f"  FAILED: {problem}")

    saved = dict(record, result=result, workload=workload, seed=args.seed,
                 seconds=args.seconds, trace=args.trace,
                 setup_samples=setup_samples, cmd_ms=latencies,
                 end_to_end=measured)
    (out / f"{stem}.trace{args.trace}.json").write_text(json.dumps(saved))
    return result


def main(argv: Optional[List[str]] = None) -> int:
    bench_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"run.py: no repro sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    bench = json.loads(bench_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable (default: every workload)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"],
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for run records and spans")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the CI smoke test")
    parser.add_argument("--record", action="store_true",
                        help="store this run's row digests in "
                             "digests.json instead of checking them")
    args = parser.parse_args(argv)
    pathlib.Path(args.out).mkdir(parents=True, exist_ok=True)
    results = [run_workload(args, workload, bench)
               for workload in args.workload or WORKLOADS]
    for result in results:
        print(json.dumps(result))
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
