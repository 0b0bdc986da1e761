"""One run of one benchmark workload, inside a single fresh process.

``run.py`` starts this file with a scrubbed environment (no ``REPRO_*``
variable except a fresh ``REPRO_CACHE_DIR``, ``src`` on ``PYTHONPATH``,
one BLAS thread). It imports ``repro.cli`` (the set-up clock runs from
the first line of this file), builds the workload's fixture through the
CLI, then drives ``repro.cli.main(argv)`` in a closed loop — one command
after another, single client, ``--jobs 1`` — until ``--seconds`` have
passed, and prints one JSON line describing the run.

The only other hook into the program is a wrapper around
``repro.core.executor.run_job``, one call per simulated job, that adds
up ``JobResult.instructions`` and its counters and samples the
host-speed :class:`Canary`. With ``--trace 1`` the
:mod:`layers` tracer wraps every layer from set-up to the end of the
measured phase.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

#: Workload seeds derived from ``--seed``: the cold workloads cycle
#: through them, one per round; corpus-replay records shards from each.
#: The generated programs' host cost per instruction varies by several
#: percent from seed to seed, so a run spreads over a few of them. A run
#: visits all of them (a round takes 3-4 s), so the programs the
#: process memoises, and with them its peak RSS, do not depend on how
#: many rounds fit in the measured phase.
SUB_SEEDS = 4

#: The multipath figure's benchmark set (the paper's call-dense four).
MULTIPATH_NAMES = ["li", "vortex", "compress", "go"]

#: The warm-tables round: every headline table command a user reruns.
WARM_COMMANDS = ["hit-rates", "speedup", "stack-depth", "ablation-mechanisms"]


@dataclasses.dataclass
class Plan:
    """The CLI commands of one workload run, as argv templates.

    ``{corpus}`` and ``{json}`` are filled in per run; the template
    text is the command's label in the digests file.
    """

    #: what throughput counts: "fetched" (simulated instruction
    #: fetches, committed plus wrong-path: a cycle model's host cost
    #: follows them more closely than committed instructions), "jobs"
    #: (jobs executed) or "hits" (table cells served from the result
    #: cache; every measured job must then be a hit)
    work: str
    #: run once, in every set-up sample
    setup: List[List[str]]
    #: run once after set-up, by the measured process only
    checks: List[List[str]]
    #: the measured phase runs rounds[0], rounds[1], ... cyclically
    rounds: List[List[List[str]]]
    #: every round on a fresh cache root (a cold-cache user)
    cold: bool = False


def sub_seeds(workload: str, seed: int) -> List[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(1, 100_000) for _ in range(SUB_SEEDS)]


def plan(workload: str, seed: int, smoke: bool) -> Plan:
    """Commands for ``workload`` at ``seed`` (``smoke``: tiny sizes)."""
    executor = ["--jobs", "1", "--json", "{json}"]
    if workload == "cycle-tables":
        names = ["--names", "li"] if smoke else []
        scale = "0.02" if smoke else "0.05"
        return Plan("fetched", [], [], [
            [["hit-rates", "--scale", scale, "--seed", str(sub)]
             + names + executor]
            for sub in sub_seeds(workload, seed)], cold=True)
    if workload == "multipath":
        names = ["li"] if smoke else MULTIPATH_NAMES
        scale = "0.02" if smoke else "0.05"
        return Plan("fetched", [], [], [
            [["multipath", "--scale", scale, "--seed", str(sub),
              "--names", *names] + executor]
            for sub in sub_seeds(workload, seed)], cold=True)
    if workload == "corpus-replay":
        # A replay job costs about the same whatever its shard's size, so
        # throughput counts jobs; several sub-seeds' shards keep the
        # event mix even. --no-cache: with the cache on, writing its
        # entries took ~40% of a round and varied 2x with the disk.
        names = ["--names", "li", "go"] if smoke else []
        scale = "0.1" if smoke else "0.25"
        replay = ["--no-cache"] + executor
        return Plan(
            "jobs",
            [["corpus", "build", "{corpus}", "--seed", str(sub),
              "--scale", scale] + names
             for sub in sub_seeds(workload, seed)],
            [["corpus", "diffcheck", "{corpus}"] + executor],
            [[["corpus", "report", "{corpus}"] + replay,
              ["corpus", "replay", "{corpus}", "--engine", "batch"]
              + replay]])
    if workload == "warm-tables":
        names = ["--names", "li"] if smoke else []
        commands = [[command, "--scale", "0.02", "--seed", str(seed)]
                    + names + executor for command in WARM_COMMANDS]
        return Plan("hits", commands, [], [commands])
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("cycle-tables", "multipath", "corpus-replay", "warm-tables")


# ----------------------------------------------------------------------
# Correctness of one command's --json output.

def row_problems(payload: Dict[str, object]) -> List[str]:
    """Invariants every table holds: rectangular rows, and every
    accuracy column (a ``%`` header other than a speed-up) in [0, 100]."""
    headers = payload.get("headers") or []
    rows = payload.get("rows") or []
    problems = []
    if not rows:
        problems.append("no rows")
    for row in rows:
        if len(row) != len(headers):
            problems.append(f"row {row[:1]} has {len(row)} cells for "
                            f"{len(headers)} headers")
            continue
        for header, value in zip(headers, row):
            if (header.endswith("%") and not header.startswith("speedup")
                    and value is not None and not 0.0 <= value <= 100.0):
                problems.append(f"{row[0]}: {header} = {value}")
    return problems


def digest(rows: object, jobs: List[list]) -> str:
    """SHA-256 over the table rows and every simulated job's
    instruction count and counters, in execution order."""
    text = json.dumps({"rows": rows, "jobs": jobs}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# The run.

class Runner:
    def __init__(self, args: argparse.Namespace) -> None:
        self.work = args.work
        self.corpus = os.path.join(self.work, "corpus")
        self.json_path = os.path.join(self.work, "out.json")
        self.cache_index = 0
        self.jobs: List[list] = []
        self.commands: List[Dict[str, object]] = []
        #: median canary time of each measured round
        self.round_canary_ms: List[float] = []
        self.canary = Canary()
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        import repro.cli
        import repro.core.executor as executor
        self.cli = repro.cli
        original = executor.run_job

        def run_job(job):
            if not args.trace:  # a traced run would charge it to a layer
                self.canary.maybe()
            result = original(job)
            self.jobs.append([result.instructions, result.counters])
            return result

        executor.run_job = run_job

    def fresh_cache(self) -> None:
        """Point REPRO_CACHE_DIR at a new, empty root; drop the old."""
        old = os.environ.get("REPRO_CACHE_DIR")
        self.cache_index += 1
        os.environ["REPRO_CACHE_DIR"] = os.path.join(
            self.work, f"cache{self.cache_index}")
        if old:
            shutil.rmtree(old, ignore_errors=True)

    def command(self, template: List[str],
                warm: bool = False) -> Dict[str, object]:
        """Run one CLI command in-process, time it, check its output
        (``warm``: every job must also be a cache hit)."""
        argv = [arg.format(corpus=self.corpus, json=self.json_path)
                for arg in template]
        label = " ".join(template)
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.json_path)
        self.jobs = []
        problems: List[str] = []
        sink = io.StringIO()
        self.canary.maybe()
        probing = self.canary.spent_s
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                status = self.cli.main(argv)
        except Exception:
            status = None
            problems.append(traceback.format_exc())
        elapsed = (time.perf_counter() - started
                   - (self.canary.spent_s - probing))
        if status != 0:
            problems.append(f"exit status {status}: {sink.getvalue()[-800:]}")
        record: Dict[str, object] = {
            "label": label, "ms": elapsed * 1e3,
            "instructions": sum(job[0] for job in self.jobs),
            "squashed": sum(job[1].get("squashed", 0) for job in self.jobs),
            "fetched": sum(job[1].get("fetched", 0) for job in self.jobs),
            "jobs": len(self.jobs), "hits": 0, "misses": 0,
        }
        if "{json}" in template and not problems:
            try:
                with open(self.json_path) as handle:
                    payload = json.load(handle)
            except (OSError, ValueError) as error:
                payload = {}
                problems.append(f"unreadable --json output: {error}")
            problems += row_problems(payload)
            record["rows"] = len(payload.get("rows") or [])
            cache = payload.get("cache") or {}
            record["hits"] = cache.get("hits", 0)
            record["misses"] = cache.get("misses", 0)
            record["digest"] = digest(payload.get("rows"), self.jobs)
            if label.startswith("corpus diffcheck") and any(
                    row[-1] != 0 for row in payload.get("rows") or []):
                problems.append("diffcheck divergences")
            if warm and (record["misses"] or not record["hits"]):
                problems.append(f"warm rerun: {record['hits']} hits, "
                                f"{record['misses']} misses")
        self.attempted += 1
        if problems:
            self.failed += 1
            record["problems"] = problems
            self.problems += [f"{label}: {problem}" for problem in problems]
        return record

    def setup(self, the_plan: Plan) -> bool:
        self.fresh_cache()
        return all("problems" not in self.command(argv)
                   for argv in the_plan.setup)

    def measure(self, the_plan: Plan, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        index = 0
        while True:
            if the_plan.cold:
                self.fresh_cache()
            self.canary.samples = []
            self.canary.sample()
            for argv in the_plan.rounds[index % len(the_plan.rounds)]:
                record = self.command(argv,
                                      warm=the_plan.work == "hits")
                record["round"] = index
                self.commands.append(record)
            self.round_canary_ms.append(
                statistics.median(self.canary.samples))
            index += 1
            if time.perf_counter() >= deadline:
                return


class Canary:
    """Host-speed probe: the time of a fixed pure-Python loop.

    Other tenants of a shared machine slow this process by tens of
    percent for seconds at a time (CPU time grows with wall time, so
    the slowdown is contention, not descheduling). Sampled at most every
    ``EVERY_S`` during the measured phase (before commands and jobs),
    its time tracks that slowdown; run.py divides it out of each round.
    Sampling starts with the measured phase; the time it takes is
    subtracted from the command it ran in.
    """

    EVERY_S = 0.05
    LOOPS = 20_000

    def __init__(self) -> None:
        self.samples: Optional[List[float]] = None
        self.spent_s = 0.0
        self.last = 0.0

    def sample(self) -> None:
        started = time.perf_counter()
        total = 0
        for value in range(self.LOOPS):
            total += value * value
        self.last = time.perf_counter()
        self.spent_s += self.last - started
        self.samples.append((self.last - started) * 1e3)

    def maybe(self) -> None:
        if (self.samples is not None
                and time.perf_counter() - self.last >= self.EVERY_S):
            self.sample()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True,
                        help="scratch directory for caches and the corpus")
    parser.add_argument("--spans", default=None,
                        help="write the traced spans here as JSONL")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    the_plan = plan(args.workload, args.seed, args.smoke)
    runner = Runner(args)
    result: Dict[str, object] = {
        "repro_env": sorted(key for key in os.environ
                            if key.startswith("REPRO_")
                            and key != "REPRO_CACHE_DIR"),
    }
    tracing = contextlib.nullcontext()
    if args.trace:
        from layers import Tracer
        tracing = Tracer()
    with tracing as tracer:
        ready = runner.setup(the_plan)
        result["setup_s"] = time.perf_counter() - T0
        if ready and not args.setup_only:
            result["checks"] = [runner.command(argv)
                                for argv in the_plan.checks]
            runner.measure(the_plan, args.seconds)
    result.update(
        attempted=runner.attempted, failed=runner.failed,
        problems=runner.problems, commands=runner.commands,
        work=the_plan.work,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    )
    result["canary_ms"] = runner.round_canary_ms
    if tracer is not None:
        result["layers"] = tracer.table()
        result["absent"] = tracer.absent
        result["traced_wall_s"] = tracer.wall_s
        if args.spans:
            tracer.write_jsonl(args.spans, {"workload": args.workload,
                                            "seed": args.seed})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
