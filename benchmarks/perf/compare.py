"""Compare two sets of benchmark runs: a parent commit and a change.

    python3 benchmarks/perf/compare.py PARENT_OUT CHANGE_OUT

Each argument is a ``--out`` directory of ``run.py`` holding untraced
run records (``*.trace0.json``), ideally five or more seeds per
workload, with the two sides run alternately. For every workload and
every end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles, the pairs the change won, and a verdict:

* ``improved``: every change run beats every parent run, or the change
  wins at least nine tenths of the pairs (ties count for neither) and
  the medians differ by more than the parent's quartile spread;
* ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved``: otherwise, when the run-to-run spread is wider than
  the bound. The spread is the parent's quartile distance over its
  median or, when both sides ran the same seeds, the quartile distance
  of the per-seed ratios (change over parent) if that is smaller: it
  removes what the seeds themselves change, such as the set-up time of
  a seed's larger programs;
* ``unchanged``: otherwise.

Runs are paired by seed. Runs whose ``host.canary_ms`` (a fixed
pure-Python loop) is over 10% slower than the median of all runs are
listed as noisy: the host was busy, and their numbers deserve a rerun.
Exit status 1 when any metric regressed.
"""

import argparse
import json
import pathlib
import statistics
import sys
from typing import Dict, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: A run is noisy when its canary is this much slower than the median.
NOISY_CANARY = 1.10


def load(directory: str) -> Dict[str, Dict[int, dict]]:
    """workload -> seed -> untraced run record."""
    runs: Dict[str, Dict[int, dict]] = {}
    for path in sorted(pathlib.Path(directory).glob("*.trace0.json")):
        record = json.loads(path.read_text())
        record["path"] = str(path)
        runs.setdefault(record["workload"], {})[record["seed"]] = record
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: List[float], change: List[float],
            pairs: List[Tuple[float, float]], higher: bool,
            bound: float) -> Tuple[str, int]:
    """The verdict for one workload x metric, and the pairs won."""
    def better(a: float, b: float) -> bool:
        return a > b if higher else a < b

    q1, parent_median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    wins = sum(better(c, p) for p, c in pairs)
    if all(better(c, p) for c in change for p in parent):
        return "improved", wins
    if (pairs and wins >= 0.9 * len(pairs)
            and better(change_median, parent_median)
            and abs(change_median - parent_median) > q3 - q1):
        return "improved", wins
    worse = (parent_median - change_median if higher
             else change_median - parent_median)
    if worse > bound * abs(parent_median):
        return "regressed", wins
    spread = (q3 - q1) / abs(parent_median)
    if len(pairs) >= 4:
        low, _, high = quartiles([c / p for p, c in pairs])
        spread = min(spread, high - low)
    if spread > bound:
        return "unresolved", wins
    return "unchanged", wins


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="run.py --out directory (parent)")
    parser.add_argument("change", help="run.py --out directory (change)")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)

    every = [record for side in (parent, change)
             for by_seed in side.values() for record in by_seed.values()]
    if not every:
        print("compare.py: no *.trace0.json run records found",
              file=sys.stderr)
        return 2
    canaries = {record["path"]: statistics.median(record["canary_ms"])
                for record in every}
    canary = statistics.median(canaries.values())
    noisy = [path for path, value in canaries.items()
             if value > NOISY_CANARY * canary]

    print(f"{'workload':<15}{'metric':<13}{'parent median [q1, q3]':>30}"
          f"{'change median [q1, q3]':>30}{'wins':>8}  verdict")
    regressed = False
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        for spec in bench["end_to_end"]:
            name = spec["name"]
            higher = spec["better"] == "higher"

            def values(side: Dict[int, dict]) -> List[float]:
                return [record["end_to_end"][name]
                        for record in side[workload].values()]

            pairs = [(parent[workload][seed]["end_to_end"][name],
                      change[workload][seed]["end_to_end"][name])
                     for seed in seeds]
            before, after = values(parent), values(change)
            result, wins = verdict(before, after, pairs, higher,
                                   spec["bound"])
            regressed |= result == "regressed"
            cells = []
            for side in (before, after):
                q1, median, q3 = quartiles(side)
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(side)}")
            print(f"{workload:<15}{name:<13}{cells[0]:>30}{cells[1]:>30}"
                  f"{f'{wins}/{len(pairs)}':>8}  {result}")
    for path in noisy:
        print(f"noisy run (canary > {NOISY_CANARY:.0%} of median "
              f"{canary:.2f} ms): {path}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
