"""Command-line driver: ``repro-sim`` / ``python -m repro``.

Examples:
    repro-sim table1
    repro-sim table4 --scale 0.25
    repro-sim hit-rates --names li vortex --scale 0.5
    repro-sim speedup --jobs 4                 # parallel, cached
    repro-sim speedup --no-cache --json f2.json
    repro-sim run --benchmark li --mechanism tos-pointer-contents
    repro-sim run --benchmark go --paths 4 --stacks per-path
    repro-sim run --benchmark go --engine fast  # columnar cycle engine
    repro-sim parity --names li vortex          # fast vs reference, all cells
    repro-sim corpus build traces/ --names li vortex --scale 0.25
    repro-sim corpus import traces/ champsim.trace.xz --name srv0
    repro-sim corpus replay traces/ --jobs 4 --sizes 1 4 16 64
    repro-sim corpus diffcheck traces/ --report diffreport.json
    repro-sim corpus report traces/
    repro-sim runs list
    repro-sim runs show -1                      # last run, with its cost split
    repro-sim runs compare -2 -1
    repro-sim report --full                     # every EXPERIMENTS.md table
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional, TextIO

from repro.config import env
from repro.config.defaults import baseline_config
from repro.config.options import RepairMechanism, StackOrganization
from repro.core import tables as table_builders
from repro.core.executor import ResultCache, SweepExecutor
from repro.core.experiment import (
    WorkloadSpec,
    multipath_machine,
    run_cycle,
    run_multipath,
)
from repro.errors import ConfigError
from repro.stats.tables import format_table
from repro.telemetry import RunLedger, compare_entries
from repro.workloads.generator import build_workload
from repro.workloads.profiles import BENCHMARK_NAMES

#: Table commands -> the name of their :mod:`repro.core.tables` builder.
#: The builder is looked up on the module at call time, so one patched
#: after import (a profiler's wrapper, a test double) is the one called.
TABLES = {
    "table1": "table1",
    "table3": "table3_baseline",
    "table4": "table4_btb_only",
    "hit-rates": "fig_hit_rates",
    "speedup": "fig_speedup",
    "stack-depth": "fig_stack_depth",
    "multipath": "fig_multipath",
    "ablation-mechanisms": "ablation_mechanisms",
    "ablation-shadow": "ablation_shadow_slots",
    "ablation-fastsim": "ablation_fastsim_crosscheck",
}

#: Table commands that run no sweep (so take no executor flags) -> the
#: name of their builder, looked up the same way.
ANALYSES = {
    "table2": "table2_workloads",
    "corruption": "analysis_corruption",
    "return-predictors": "analysis_return_predictors",
    "smt": "smt_stacks",
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process; environment-backed
    defaults stay ``None`` until :func:`_resolve_defaults`."""
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Return-address-stack repair reproduction "
                    "(Skadron et al., MICRO-31 1998)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each command takes only the shared flags it reads.
    def seed_scale_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None,
                       help="workload seed (default: $REPRO_SEED or 1)")
        p.add_argument("--scale", type=float, default=None,
                       help="workload size (default: $REPRO_SCALE or 0.25)")

    def workload_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--names", nargs="*", default=None,
                       choices=BENCHMARK_NAMES,
                       help="benchmarks to run (default: all)")
        seed_scale_flags(p)

    def executor_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=None,
                       help="worker processes for independent simulations "
                            "(default: $REPRO_JOBS or 1)")
        p.add_argument("--no-cache", action="store_true",
                       help="ignore and don't update the on-disk result "
                            "cache, and record no run (see "
                            "docs/performance.md)")

    def sweep_flags(p: argparse.ArgumentParser) -> None:
        executor_flags(p)
        p.add_argument("--json", metavar="OUT", default=None,
                       help="also write the table as JSON to OUT")

    def replay_engine_flag(p: argparse.ArgumentParser) -> None:
        # one choice; the flag stays so existing command lines parse
        p.add_argument("--engine", default="batch", choices=["batch"],
                       help="replay engine: block-decoded 'batch' "
                            "(docs/performance.md)")

    for name in TABLES:
        p = sub.add_parser(name, help=f"print {name}")
        workload_flags(p)
        sweep_flags(p)

    p = sub.add_parser("table2", help="workload characterisation")
    workload_flags(p)

    p = sub.add_parser("corruption",
                       help="classify return mispredictions by cause")
    workload_flags(p)

    p = sub.add_parser("return-predictors",
                       help="RAS vs BTB vs target caches on returns")
    workload_flags(p)

    p = sub.add_parser("smt",
                       help="SMT threads: shared vs per-thread stacks")
    seed_scale_flags(p)
    p.add_argument("--benchmark", default="li", choices=BENCHMARK_NAMES)
    p.add_argument("--threads", type=int, default=2)

    p = sub.add_parser("run", help="simulate one benchmark")
    seed_scale_flags(p)
    p.add_argument("--benchmark", required=True, choices=BENCHMARK_NAMES)
    p.add_argument("--mechanism", default="tos-pointer-contents",
                   choices=[m.value for m in RepairMechanism])
    p.add_argument("--no-ras", action="store_true",
                   help="disable the RAS (BTB-only returns)")
    p.add_argument("--ras-entries", type=int, default=32)
    p.add_argument("--paths", type=int, default=1,
                   help=">1 selects the multipath model")
    p.add_argument("--stacks", default="per-path",
                   choices=[o.value for o in StackOrganization])
    p.add_argument("--engine", default="reference",
                   choices=["reference", "fast"],
                   help="'fast' selects the columnar work-list twin "
                        "(bit-identical counters; see docs/engines.md)")

    p = sub.add_parser("disasm", help="disassemble a generated benchmark")
    seed_scale_flags(p)
    p.add_argument("--benchmark", required=True, choices=BENCHMARK_NAMES)
    p.add_argument("--count", type=int, default=40)

    p = sub.add_parser("corpus",
                       help="manage sharded trace corpora (docs/traces.md)")
    csub = p.add_subparsers(dest="corpus_command", required=True)

    c = csub.add_parser("build",
                        help="record workload shards into a corpus")
    c.add_argument("corpus", help="corpus directory (created if needed)")
    workload_flags(c)
    c.add_argument("--max-instructions", type=int, default=50_000_000)

    c = csub.add_parser("import",
                        help="import a ChampSim trace as a shard")
    c.add_argument("corpus", help="corpus directory (created if needed)")
    c.add_argument("trace", help="ChampSim trace file (xz/gz/raw)")
    c.add_argument("--name", default=None,
                   help="shard name (default: trace file stem)")
    c.add_argument("--limit", type=int, default=None,
                   help="import at most this many trace records")

    c = csub.add_parser("info", help="list a corpus's shards")
    c.add_argument("corpus")

    c = csub.add_parser("verify",
                        help="recompute shard checksums against the manifest")
    c.add_argument("corpus")

    c = csub.add_parser("replay",
                        help="stack-depth sweep over every shard")
    c.add_argument("corpus")
    c.add_argument("--sizes", nargs="+", type=int,
                   default=(1, 2, 4, 8, 12, 16, 32, 64))
    c.add_argument("--mechanism", default="none",
                   choices=[m.value for m in RepairMechanism])
    replay_engine_flag(c)
    c.add_argument("--shards", nargs="*", default=None,
                   help="restrict to these shard names")
    sweep_flags(c)

    c = csub.add_parser(
        "diffcheck",
        help="differential replay against the reference ChampSim "
             "model; exits 1 on any divergence (docs/validation.md)")
    c.add_argument("corpus")
    c.add_argument("--mechanism", default="champsim",
                   choices=[m.value for m in RepairMechanism])
    c.add_argument("--ras-entries", type=int, default=64)
    c.add_argument("--shards", nargs="*", default=None,
                   help="restrict to these shard names")
    c.add_argument("--report", metavar="OUT", default=None,
                   help="write the full DiffReport list as JSON to OUT "
                        "(the CI artifact)")
    sweep_flags(c)

    c = csub.add_parser(
        "report",
        help="corpus-wide headline table: every shard, every "
             "mechanism (docs/validation.md)")
    c.add_argument("corpus")
    c.add_argument("--ras-entries", type=int, default=64)
    replay_engine_flag(c)
    c.add_argument("--shards", nargs="*", default=None,
                   help="restrict to these shard names")
    sweep_flags(c)

    p = sub.add_parser("runs",
                       help="inspect the persistent run ledger "
                            "(docs/observability.md)")
    rsub = p.add_subparsers(dest="runs_command", required=True)

    def ledger_opt(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--ledger", default=None,
                        help="ledger file (default: <cache root>/"
                             "ledger.jsonl)")

    r = rsub.add_parser("list", help="recorded runs, oldest first")
    ledger_opt(r)
    r.add_argument("--limit", type=int, default=20,
                   help="show only the newest N entries (default 20; "
                        "below 1: all of them)")
    r.add_argument("--json", metavar="OUT", default=None,
                   help="also write the table as JSON to OUT")

    r = rsub.add_parser("show", help="one ledger entry in full, with its "
                                     "counters and cost split")
    ledger_opt(r)
    r.add_argument("ref", help="run id (prefix) or index (-1 = latest)")
    r.add_argument("--json", metavar="OUT", default=None,
                   help="also write the entry (plus its integrity "
                        "verdict) as JSON to OUT")

    r = rsub.add_parser("compare",
                        help="diff two ledger entries (config fingerprint "
                             "delta + metric deltas)")
    ledger_opt(r)
    r.add_argument("a", help="run id (prefix) or index")
    r.add_argument("b", help="run id (prefix) or index")
    r.add_argument("--json", metavar="OUT", default=None,
                   help="also write the full diff as JSON to OUT")

    p = sub.add_parser("parity",
                       help="prove fast-engine counters bit-identical to "
                            "the reference engines (docs/engines.md)")
    workload_flags(p)
    p.add_argument("--ras-entries", nargs="+", type=int, default=(8, 32),
                   help="RAS sizes for the single-path cells")
    p.add_argument("--paths", nargs="+", type=int, default=(2,),
                   help="path budgets for the multipath cells")
    p.add_argument("--no-multipath", action="store_true",
                   help="skip the multipath cells")

    p = sub.add_parser("report",
                       help="regenerate every table/figure in one pass")
    workload_flags(p)
    executor_flags(p)
    p.add_argument("--out", default=None,
                   help="write the report here instead of stdout")
    p.add_argument("--full", action="store_true",
                   help="include the slow sections (multipath, ablations)")
    return parser


def _resolve_defaults(args: argparse.Namespace) -> Optional[str]:
    """Fill in the flags left unset from the environment, per call: the
    parser is built once, but ``REPRO_SEED`` etc. may change between.
    Returns the error message when the resolved scale is out of range."""
    if getattr(args, "names", 0) in (None, []):
        args.names = list(BENCHMARK_NAMES)
    for name, default in (("seed", env.seed), ("scale", env.scale),
                          ("jobs", env.jobs)):
        if getattr(args, name, 0) is None:
            setattr(args, name, default())
    scale = getattr(args, "scale", None)
    if scale is not None and not 0.0 < scale <= 4.0:
        return f"repro-sim {args.command}: scale {scale} out of range (0, 4]"
    return None


def _run_command(args: argparse.Namespace) -> int:
    program = build_workload(args.benchmark, seed=args.seed, scale=args.scale)
    if args.paths > 1:
        config = multipath_machine(
            args.paths, StackOrganization(args.stacks))
        if args.engine == "fast":
            from repro.fastsim.multipath import run_multipath_fast
            result, _ = run_multipath_fast(program, config)
        else:
            result, _ = run_multipath(program, config)
    else:
        config = baseline_config()
        config = config.with_repair(RepairMechanism(args.mechanism))
        config = config.with_ras_entries(args.ras_entries)
        if args.no_ras:
            config = config.without_ras()
        if args.engine == "fast":
            from repro.fastsim.cycle import run_cycle_fast
            result, _ = run_cycle_fast(program, config)
        else:
            result, _ = run_cycle(program, config)
    summary = result.as_dict()
    rows = [[key, value] for key, value in summary.items()]
    print(format_table(["stat", "value"], rows,
                       title=f"{args.benchmark} (seed={args.seed}, "
                             f"scale={args.scale})"))
    return 0


def _parity_command(args: argparse.Namespace) -> int:
    from repro.fastsim.parity import parity_sweep

    reports = parity_sweep(
        args.names, seed=args.seed, scale=args.scale,
        ras_entries=tuple(args.ras_entries), paths=tuple(args.paths),
        include_multipath=not args.no_multipath)
    rows = [[r.label, len(r.reference), "ok" if r.matches
             else f"{len(r.mismatches)} DIVERGING"] for r in reports]
    print(format_table(["cell", "stats compared", "verdict"], rows,
                       title=f"Differential parity (seed={args.seed}, "
                             f"scale={args.scale})"))
    failed = [r for r in reports if not r.matches]
    for report in failed:
        for mismatch in report.mismatches:
            print(f"  {report.label}: {mismatch}", file=sys.stderr)
    return 1 if failed else 0


def _corpus_command(args: argparse.Namespace) -> int:
    from repro.corpus import CorpusStore, corpus_depth_sweep
    from repro.errors import ReproError

    try:
        if args.corpus_command == "build":
            store = CorpusStore.open_or_create(args.corpus)
            specs = [WorkloadSpec(name, args.seed, args.scale)
                     for name in args.names]
            records = store.build_from_specs(
                specs, max_instructions=args.max_instructions)
            for record in records:
                print(f"recorded {record.name}: {record.events} events "
                      f"({record.calls} calls, {record.returns} returns)")
            return 0
        if args.corpus_command == "import":
            store = CorpusStore.open_or_create(args.corpus)
            record, stats = store.import_champsim(
                args.trace, name=args.name, limit=args.limit)
            print(f"imported {record.name}: {stats.records} records -> "
                  f"{record.events} events ({record.calls} calls, "
                  f"{record.returns} returns, "
                  f"{stats.unclassified} unclassified, "
                  f"{stats.dropped_tail} dropped tail, "
                  f"{stats.offset_mismatches} offset mismatches, "
                  f"{stats.backwards_returns} backwards returns)")
            return 0
        store = CorpusStore.open(args.corpus)
        if args.corpus_command == "info":
            print(format_table(
                ["shard", "source", "fmt", "events", "calls", "returns",
                 "checksum"],
                store.summary_rows(),
                title=f"Corpus {store.root} "
                      f"({len(store.manifest)} shards, "
                      f"{store.manifest.total_events} events)"))
            return 0
        if args.corpus_command == "verify":
            store.verify()
            print(f"corpus {store.root} ok: "
                  f"{len(store.manifest)} shards verified")
            return 0
        if args.corpus_command == "diffcheck":
            return _corpus_diffcheck(args, store)
        if args.corpus_command == "report":
            from repro.corpus import corpus_report

            executor = _make_executor(args)
            title, headers, rows = corpus_report(
                store, ras_entries=args.ras_entries, executor=executor,
                names=args.shards)
            print(format_table(headers, rows, title=title))
            _print_sweep_summary(executor)
            if args.json:
                return _write_json(args, title, headers, rows, executor)
            return 0
        # replay
        executor = _make_executor(args)
        title, headers, rows = corpus_depth_sweep(
            store, sizes=args.sizes,
            mechanism=RepairMechanism(args.mechanism),
            executor=executor, names=args.shards)
        print(format_table(headers, rows, title=title))
        _print_sweep_summary(executor)
        if args.json:
            return _write_json(args, title, headers, rows, executor)
        return 0
    except ConfigError:
        raise  # a malformed REPRO_* value: main() reports it
    except ReproError as error:
        print(f"repro-sim corpus: {error}", file=sys.stderr)
        return 1


def _corpus_diffcheck(args: argparse.Namespace, store) -> int:
    from repro.corpus import diff_corpus

    executor = _make_executor(args)
    reports = diff_corpus(
        store, ras_entries=args.ras_entries,
        mechanism=RepairMechanism(args.mechanism),
        executor=executor, names=args.shards)
    headers = ["shard", "events", "returns", "ours %", "reference %",
               "divergences"]
    rows: List[List[object]] = []
    for report in reports:
        rate = (lambda hits: None if report.returns == 0
                else round(100 * hits / report.returns, 2))
        rows.append([report.shard, report.events, report.returns,
                     rate(report.ours_hits), rate(report.reference_hits),
                     report.divergences])
    title = (f"Differential check ({args.mechanism} vs reference "
             f"ChampSim, {args.ras_entries}-entry RAS)")
    print(format_table(headers, rows, title=title))
    _print_sweep_summary(executor)
    diverging = [report for report in reports if not report.ok]
    for report in diverging:
        first = report.first_divergence or {}
        print(f"repro-sim corpus diffcheck: {report.shard}: "
              f"{report.divergences} divergences; first at event "
              f"{first.get('event')}: ours={first.get('ours')} "
              f"reference={first.get('reference')}", file=sys.stderr)
    if args.report:
        payload = {
            "command": "corpus diffcheck",
            "mechanism": args.mechanism,
            "ras_entries": args.ras_entries,
            "ok": not diverging,
            "reports": [report.to_json_dict() for report in reports],
        }
        if _write_file(args.report, _json_text(payload),
                       f"diff report written to {args.report}"):
            return 1
    if args.json:
        status = _write_json(args, title, headers, rows, executor)
        if status:
            return status
    return 1 if diverging else 0


def _make_executor(args: argparse.Namespace) -> SweepExecutor:
    cache = None if args.no_cache else ResultCache.default()
    return SweepExecutor(jobs=args.jobs, cache=cache)


def _print_sweep_summary(executor: SweepExecutor) -> None:
    """One stderr line with cache hits/misses, wall time, run id."""
    line = executor.summary_line()
    if line:
        print(line, file=sys.stderr)


def _write_json(args: argparse.Namespace, title: str, headers, rows,
                executor: Optional[SweepExecutor] = None) -> int:
    payload = {
        "command": args.command,
        "title": title,
        "headers": list(headers),
        "rows": [list(row) for row in rows],
        "seed": getattr(args, "seed", None),
        "scale": getattr(args, "scale", None),
    }
    if executor is not None:
        payload["cache"] = executor.cache_stats()
        payload["wall_time_s"] = round(executor.wall_time_s, 6)
        if executor.run_ids:
            payload["run_ids"] = list(executor.run_ids)
    return _write_file(args.json, _json_text(payload),
                       f"json written to {args.json}")


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, default=str) + "\n"


def _write_file(path: str, text: str, written: str,
                stream: Optional[TextIO] = None) -> int:
    """Write ``text`` to ``path`` and print ``written`` to ``stream``
    (default stderr). A path that cannot be written prints one line
    and returns 1, never a traceback."""
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as error:
        print(f"repro-sim: cannot write {path}: {error}", file=sys.stderr)
        return 1
    print(written, file=stream or sys.stderr)
    return 0


def _runs_command(args: argparse.Namespace) -> int:
    from repro.errors import ReproError

    ledger = (RunLedger(args.ledger) if args.ledger
              else RunLedger.at_root(env.cache_root()))
    try:
        if args.runs_command == "list":
            entries = ledger.entries(limit=args.limit)
            if not entries:
                print(f"no runs recorded at {ledger.path}", file=sys.stderr)
                return 1
            rows = []
            for entry in entries:
                hit_rate = (entry.get("cache") or {}).get("hit_rate")
                accuracy = (entry.get("headline") or {}).get(
                    "return_accuracy")
                rows.append([
                    entry.get("run_id"),
                    entry.get("utc"),
                    ",".join(entry.get("engines") or []),
                    entry.get("submitted"),
                    entry.get("jobs"),
                    None if hit_rate is None else round(100 * hit_rate, 1),
                    entry.get("wall_time_s"),
                    None if accuracy is None else round(100 * accuracy, 2),
                ])
            title = f"Run ledger {ledger.path} ({len(entries)} shown)"
            headers = ["run id", "utc", "engines", "sweeps", "jobs",
                       "cache hit %", "wall s", "return acc %"]
            print(format_table(headers, rows, title=title))
            if args.json:
                return _write_json(args, title, headers, rows)
            return 0
        if args.runs_command == "show":
            entry = ledger.get(args.ref)
            info = {"entry": entry, "integrity_ok": ledger.verify(entry)}
            integrity = "ok" if info["integrity_ok"] else "MISMATCH"
            rows = []
            for key in sorted(entry):
                if key in ("metrics", "spans"):
                    continue  # their own tables below
                value = entry[key]
                if key == "configs":
                    value = ",".join(str(f)[:12] for f in value)
                elif key == "code":
                    value = str(value)[:12]
                elif isinstance(value, (dict, list)):
                    value = json.dumps(value, default=str)
                rows.append([key, value])
            rows.append(["integrity", f"content hash {integrity}"])
            print(format_table(
                ["field", "value"], rows,
                title=f"Run {entry.get('run_id')}"))
            metrics = (entry.get("metrics") or {}).get("counters") or {}
            if metrics:
                print(format_table(
                    ["metric", "value"],
                    [[name, value] for name, value in metrics.items()],
                    title="Metrics (counters)"))
            spans = entry.get("spans") or {}
            if spans:
                print(format_table(
                    ["span", "calls", "ms"],
                    [[name, total["calls"], round(1000 * total["s"], 3)]
                     for name, total in spans.items()],
                    title="Cost split (span totals)"))
            if args.json:
                return _write_file(args.json, _json_text(info),
                                   f"json written to {args.json}")
            return 0
        # compare
        diff = compare_entries(ledger.get(args.a), ledger.get(args.b))
        field_rows = []
        for field, delta in diff["fields"].items():
            shown_a, shown_b = delta["a"], delta["b"]
            if field == "configs":
                shown_a = ",".join(f[:12] for f in (delta["a"] or []))
                shown_b = ",".join(f[:12] for f in (delta["b"] or []))
            elif field == "code":
                shown_a = str(shown_a)[:12]
                shown_b = str(shown_b)[:12]
            elif isinstance(shown_a, (dict, list)) \
                    or isinstance(shown_b, (dict, list)):
                shown_a = json.dumps(shown_a, default=str)
                shown_b = json.dumps(shown_b, default=str)
            field_rows.append([field, shown_a, shown_b])
        title = f"Runs {diff['a']} vs {diff['b']}"
        if field_rows:
            print(format_table(["field", "a", "b"], field_rows,
                               title=f"{title}: config delta"))
        else:
            print(f"{title}: identical configuration")
        metric_rows = [
            [name, values["a"], values["b"], values["delta"]]
            for name, values in diff["metrics"].items()
            if values["delta"] or values["a"] != values["b"]
            or name.startswith(("cache.", "headline.", "wall_time"))
        ]
        if metric_rows:
            print(format_table(["metric", "a", "b", "delta"], metric_rows,
                               title=f"{title}: metric delta"))
        if args.json:
            return _write_file(args.json, _json_text(diff),
                               f"json written to {args.json}")
        return 0
    except ReproError as error:
        print(f"repro-sim runs: {error}", file=sys.stderr)
        return 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        error = _resolve_defaults(args)
        if error is not None:
            print(error, file=sys.stderr)
            return 1
        return _dispatch(args)
    except ConfigError as error:
        print(f"repro-sim: {error}", file=sys.stderr)
        return 2


def _table_command(args: argparse.Namespace) -> int:
    builder = getattr(table_builders, TABLES[args.command])
    executor = _make_executor(args)
    if args.command == "table1":
        title, headers, rows = builder()
    else:
        title, headers, rows = builder(names=args.names, seed=args.seed,
                                       scale=args.scale, executor=executor)
    print(format_table(headers, rows, title=title))
    _print_sweep_summary(executor)
    if args.json:
        return _write_json(args, title, headers, rows, executor)
    return 0


def _analysis_command(args: argparse.Namespace) -> int:
    builder = getattr(table_builders, ANALYSES[args.command])
    if args.command == "smt":
        title, headers, rows = builder(
            names=[args.benchmark], threads=[args.threads], seed=args.seed,
            scale=args.scale)
    else:
        title, headers, rows = builder(names=args.names, seed=args.seed,
                                       scale=args.scale)
    print(format_table(headers, rows, title=title))
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "corpus":
        return _corpus_command(args)
    if args.command == "runs":
        return _runs_command(args)
    if args.command in TABLES:
        return _table_command(args)
    if args.command in ANALYSES:
        return _analysis_command(args)
    if args.command == "run":
        return _run_command(args)
    if args.command == "parity":
        return _parity_command(args)
    if args.command == "disasm":
        program = build_workload(args.benchmark, seed=args.seed,
                                 scale=args.scale)
        print(program.disassemble(count=args.count))
        return 0
    if args.command == "report":
        from repro.core.report import build_report
        executor = _make_executor(args)
        text = build_report(
            names=args.names, seed=args.seed, scale=args.scale,
            full=args.full,
            progress=lambda section: print(f"... {section}",
                                           file=sys.stderr),
            executor=executor,
        )
        _print_sweep_summary(executor)
        if args.out:
            return _write_file(args.out, text + "\n",
                               f"report written to {args.out}", sys.stdout)
        print(text)
        return 0
    return 1  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
