"""One ``(title, headers, rows)`` builder per table in EXPERIMENTS.md.

The tables are ready for :func:`repro.stats.format_table`. The CLI,
:mod:`repro.core.report` and the bench targets under ``benchmarks/``
print them and build no rows of their own; EXPERIMENTS.md records
representative output against the paper's claims.

Every sweep builder decomposes its grid into independent
:class:`~repro.core.executor.ExperimentJob` instances and submits them
through a :class:`~repro.core.executor.SweepExecutor` in a single
``run`` call, so one ``--jobs N`` flag parallelises the whole table and
the on-disk result cache skips any cell whose inputs are unchanged.
Rows are assembled from the executor's order-preserving results, which
makes parallel and serial output bit-identical. T2, A4, A5 and A9 run
no sweep, so they take no executor; they import their instruments when
called, which keeps those out of ``import repro.cli``.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.config.defaults import baseline_config, table1_rows
from repro.config.machine import MachineConfig
from repro.config.options import (
    PRIMARY_MECHANISMS,
    RepairMechanism,
    StackOrganization,
)
from repro.core.executor import ExperimentJob, JobResult, SweepExecutor
from repro.core.experiment import (
    WorkloadSpec,
    build_program,
    multipath_machine,
)
from repro.workloads.profiles import BENCHMARK_NAMES

TableData = Tuple[str, List[str], List[List[object]]]


def _specs(
    names: Sequence[str], seed: int, scale: float
) -> List[WorkloadSpec]:
    return [WorkloadSpec(name, seed, scale) for name in names]


def _pct(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(100.0 * value, 2)


def _executor(executor: Optional[SweepExecutor]) -> SweepExecutor:
    return executor if executor is not None else SweepExecutor()


def _chunks(results: Sequence[JobResult], size: int) -> Iterator[List[JobResult]]:
    """Split a flat result list back into per-row groups of ``size``."""
    for start in range(0, len(results), size):
        yield list(results[start:start + size])


def _hit_rate_rows(
    names: Sequence[str],
    seed: int,
    scale: float,
    configs: Sequence[MachineConfig],
    executor: Optional[SweepExecutor],
    engine: str = "cycle",
) -> List[List[object]]:
    """One row per benchmark: its name, then the committed-return hit
    rate under each of ``configs``. Jobs go out benchmark-major."""
    specs = _specs(names, seed, scale)
    jobs = [ExperimentJob(spec, config, engine)
            for spec in specs for config in configs]
    results = _executor(executor).run(jobs)
    return [[spec.name] + [_pct(result.return_accuracy) for result in chunk]
            for spec, chunk in zip(specs, _chunks(results, len(configs)))]


# ----------------------------------------------------------------------
# T1-T4.

def table1() -> TableData:
    """T1: the baseline machine model."""
    rows = [[name, value] for name, value in table1_rows(baseline_config())]
    return ("Table 1: baseline machine model", ["parameter", "value"], rows)


def table2_workloads(
    names: Sequence[str] = BENCHMARK_NAMES,
    seed: int = 1,
    scale: float = 0.25,
) -> TableData:
    """T2: each workload's dynamic behaviour on the functional emulator."""
    from repro.workloads.characterize import TABLE2_HEADERS, characterize

    rows = [characterize(build_program(spec)).as_row()
            for spec in _specs(names, seed, scale)]
    return ("Table 2: benchmark summary", TABLE2_HEADERS, rows)


def table3_baseline(
    names: Sequence[str] = BENCHMARK_NAMES,
    seed: int = 1,
    scale: float = 0.25,
    executor: Optional[SweepExecutor] = None,
) -> TableData:
    """T3: baseline control-flow prediction on the cycle model."""
    specs = _specs(names, seed, scale)
    jobs = [ExperimentJob(spec, baseline_config(), "cycle") for spec in specs]
    results = _executor(executor).run(jobs)
    rows = []
    for spec, result in zip(specs, results):
        rows.append([
            spec.name,
            result.instructions,
            round(result.ipc, 3),
            _pct(result.cond_accuracy),
            _pct(result.return_accuracy),
            _pct(result.indirect_accuracy),
            _pct(result.btb_hit_rate),
            result.counter("mispredictions"),
        ])
    headers = ["benchmark", "insts", "ipc", "cond acc %", "ret acc %",
               "ind acc %", "btb hit %", "mispredicts"]
    return ("Table 3: baseline control-flow prediction", headers, rows)


def table4_btb_only(
    names: Sequence[str] = BENCHMARK_NAMES,
    seed: int = 1,
    scale: float = 0.25,
    executor: Optional[SweepExecutor] = None,
) -> TableData:
    """T4: return prediction without a RAS (BTB only).

    The paper: "Without a return-address stack, return addresses are
    found in the BTB only a little over half the time."
    """
    specs = _specs(names, seed, scale)
    jobs: List[ExperimentJob] = []
    for spec in specs:
        jobs.append(ExperimentJob(spec, baseline_config().without_ras(),
                                  "cycle"))
        jobs.append(ExperimentJob(spec, baseline_config(), "cycle"))
    results = _executor(executor).run(jobs)
    rows = []
    for spec, (btb_only, with_ras) in zip(specs, _chunks(results, 2)):
        rows.append([
            spec.name,
            _pct(btb_only.return_accuracy),
            _pct(with_ras.return_accuracy),
            round(btb_only.ipc, 3),
            round(with_ras.ipc, 3),
        ])
    headers = ["benchmark", "btb-only ret acc %", "with-RAS ret acc %",
               "btb-only ipc", "with-RAS ipc"]
    return ("Table 4: BTB-only return prediction", headers, rows)


# ----------------------------------------------------------------------
# F1: hit rates per repair mechanism.

def fig_hit_rates(
    names: Sequence[str] = BENCHMARK_NAMES,
    mechanisms: Iterable[RepairMechanism] = PRIMARY_MECHANISMS,
    seed: int = 1,
    scale: float = 0.25,
    executor: Optional[SweepExecutor] = None,
) -> TableData:
    """F1: committed-return hit rate by repair mechanism."""
    mechanisms = list(mechanisms)
    configs = [baseline_config().with_repair(m) for m in mechanisms]
    rows = _hit_rate_rows(names, seed, scale, configs, executor)
    headers = ["benchmark"] + [f"{m} %" for m in mechanisms]
    return ("Figure: return-address-stack hit rates by repair mechanism",
            headers, rows)


# ----------------------------------------------------------------------
# F2: speedups.

def fig_speedup(
    names: Sequence[str] = BENCHMARK_NAMES,
    seed: int = 1,
    scale: float = 0.25,
    executor: Optional[SweepExecutor] = None,
) -> TableData:
    """F2: IPC speedup of repair over no-repair and over BTB-only.

    The paper reports up to ~8.7% over no repair and up to ~15% over
    BTB-only prediction for the pointer+contents mechanism.
    """
    specs = _specs(names, seed, scale)
    jobs: List[ExperimentJob] = []
    for spec in specs:
        jobs.append(ExperimentJob(spec, baseline_config().without_ras(),
                                  "cycle"))
        jobs.append(ExperimentJob(
            spec, baseline_config().with_repair(RepairMechanism.NONE),
            "cycle"))
        jobs.append(ExperimentJob(
            spec,
            baseline_config().with_repair(
                RepairMechanism.TOS_POINTER_AND_CONTENTS),
            "cycle"))
    results = _executor(executor).run(jobs)
    rows = []
    for spec, (btb_only, none, repaired) in zip(specs, _chunks(results, 3)):
        rows.append([
            spec.name,
            round(btb_only.ipc, 3),
            round(none.ipc, 3),
            round(repaired.ipc, 3),
            round(100.0 * (repaired.ipc / none.ipc - 1.0), 2),
            round(100.0 * (repaired.ipc / btb_only.ipc - 1.0), 2),
        ])
    headers = ["benchmark", "btb-only ipc", "no-repair ipc", "repaired ipc",
               "speedup vs none %", "speedup vs btb-only %"]
    return ("Figure: speedup from pointer+contents repair", headers, rows)


# ----------------------------------------------------------------------
# F3: stack-depth sensitivity (fast model for breadth).

def fig_stack_depth(
    names: Sequence[str] = ("li", "vortex", "gcc"),
    sizes: Sequence[int] = (1, 2, 4, 8, 12, 16, 32, 64),
    mechanism: RepairMechanism = RepairMechanism.TOS_POINTER_AND_CONTENTS,
    seed: int = 1,
    scale: float = 0.5,
    executor: Optional[SweepExecutor] = None,
) -> TableData:
    """F3: return hit rate vs stack depth.

    Small stacks overflow under deep call chains and recursion; the
    curves flatten once the stack covers the common call depth. Uses
    the fast model so that eight sizes x several workloads stay cheap.
    """
    repaired = baseline_config().with_repair(mechanism)
    configs = [repaired.with_ras_entries(size) for size in sizes]
    rows = _hit_rate_rows(names, seed, scale, configs, executor,
                          engine="fast")
    headers = ["benchmark"] + [f"{size}-entry %" for size in sizes]
    return (f"Figure: hit rate vs stack depth ({mechanism})", headers, rows)


# ----------------------------------------------------------------------
# F4: multipath stack organisations.

def fig_multipath(
    names: Sequence[str] = ("li", "vortex", "compress", "go"),
    path_counts: Sequence[int] = (2, 4),
    seed: int = 1,
    scale: float = 0.15,
    executor: Optional[SweepExecutor] = None,
) -> TableData:
    """F4: relative IPC of stack organisations under multipath.

    As in the paper's figure, each path count is normalised to its own
    unified-stack case; per-path stacks should win by a wide margin on
    call-dense workloads and full checkpointing should not help. The
    multipath model is the slowest engine, hence the smaller default
    scale.
    """
    organizations = list(StackOrganization)
    specs = _specs(names, seed, scale)
    grid = [(spec, paths) for spec in specs for paths in path_counts]
    jobs = [
        ExperimentJob(spec, multipath_machine(paths, organization),
                      "multipath")
        for spec, paths in grid for organization in organizations
    ]
    results = _executor(executor).run(jobs)
    rows = []
    for (spec, paths), chunk in zip(grid,
                                    _chunks(results, len(organizations))):
        ipcs = {organization: result.ipc
                for organization, result in zip(organizations, chunk)}
        accs = {organization: result.return_accuracy
                for organization, result in zip(organizations, chunk)}
        unified = ipcs[StackOrganization.UNIFIED] or 1e-9
        row: List[object] = [spec.name, paths]
        for organization in organizations:
            row.append(round(ipcs[organization] / unified, 4))
        for organization in organizations:
            row.append(_pct(accs[organization]))
        rows.append(row)
    headers = (["benchmark", "paths"]
               + [f"{o} rel-ipc" for o in organizations]
               + [f"{o} ret %" for o in organizations])
    return ("Figure: multipath stack organisations (normalised to unified)",
            headers, rows)


# ----------------------------------------------------------------------
# Ablations.

def ablation_mechanisms(
    names: Sequence[str] = ("li", "vortex", "go"),
    seed: int = 1,
    scale: float = 0.25,
    executor: Optional[SweepExecutor] = None,
) -> TableData:
    """A1: all six mechanisms, including the related-work variants."""
    mechanisms = list(RepairMechanism)
    configs = [baseline_config().with_repair(m) for m in mechanisms]
    rows = _hit_rate_rows(names, seed, scale, configs, executor)
    headers = ["benchmark"] + [f"{m} %" for m in mechanisms]
    return ("Ablation: every repair mechanism (incl. valid bits and "
            "self-checkpointing)", headers, rows)


def ablation_shadow_slots(
    names: Sequence[str] = ("li", "go"),
    slot_counts: Sequence[Optional[int]] = (1, 2, 4, 8, 20, None),
    seed: int = 1,
    scale: float = 0.25,
    executor: Optional[SweepExecutor] = None,
) -> TableData:
    """A2: limited shadow-checkpoint slots (R10000=4, 21264~20)."""
    base = baseline_config()
    configs = [
        dataclasses.replace(
            base,
            predictor=dataclasses.replace(
                base.predictor, shadow_checkpoint_slots=slots),
        )
        for slots in slot_counts
    ]
    rows = _hit_rate_rows(names, seed, scale, configs, executor)
    headers = ["benchmark"] + [
        ("unlimited %" if slots is None else f"{slots} slots %")
        for slots in slot_counts
    ]
    return ("Ablation: shadow-checkpoint slots", headers, rows)


def ablation_btb_capacity(
    names: Sequence[str] = ("li", "vortex", "gcc"),
    set_counts: Sequence[int] = (16, 64, 256, 512),
    seed: int = 1,
    scale: float = 0.25,
    executor: Optional[SweepExecutor] = None,
) -> TableData:
    """A10: BTB capacity and BTB-only return prediction.

    Table 4's "a little over half" is not a capacity problem: even a
    large BTB stores one target per return site, and returns with
    multiple callers keep missing. Small BTBs add conflict misses on
    top. The gap to a RAS persists at every size.
    """
    base = baseline_config().without_ras()
    configs = [
        dataclasses.replace(
            base,
            predictor=dataclasses.replace(base.predictor, btb_sets=sets),
        )
        for sets in set_counts
    ] + [baseline_config()]
    rows = _hit_rate_rows(names, seed, scale, configs, executor)
    headers = (["benchmark"]
               + [f"btb {sets}x4 %" for sets in set_counts]
               + ["32-entry RAS %"])
    return ("Ablation: BTB capacity vs BTB-only return prediction",
            headers, rows)


def ablation_contents_depth(
    names: Sequence[str] = ("li", "go", "vortex"),
    depths: Sequence[int] = (1, 2, 4, 8, 32),
    seed: int = 1,
    scale: float = 0.25,
    executor: Optional[SweepExecutor] = None,
) -> TableData:
    """A8: checkpointing the top-k entries instead of just the top.

    The paper: "One can, of course, save an arbitrary number of
    return-address-stack entries this way; the extreme would be to
    checkpoint the entire return-address stack." k=1 is the paper's
    proposal; k=32 equals full-stack checkpointing on a 32-entry stack.
    """
    configs = [baseline_config().with_contents_depth(depth)
               for depth in depths]
    configs.append(
        baseline_config().with_repair(RepairMechanism.FULL_STACK))
    rows = _hit_rate_rows(names, seed, scale, configs, executor)
    headers = (["benchmark"] + [f"top-{d} %" for d in depths]
               + ["full-stack %"])
    return ("Ablation: checkpointed-contents depth", headers, rows)


def ablation_direction_predictors(
    names: Sequence[str] = ("go", "li"),
    kinds: Sequence[str] = ("bimodal", "gshare", "hybrid"),
    seed: int = 1,
    scale: float = 0.25,
    executor: Optional[SweepExecutor] = None,
) -> TableData:
    """A7: repair payoff vs direction-predictor quality.

    A weaker direction predictor mispredicts more, sends more wrong
    paths through the RAS, and therefore makes repair worth more — the
    paper's corruption story, modulated through misprediction rate.
    Rows report cond-branch accuracy, then return accuracy with no
    repair and with the paper's mechanism, per predictor kind.
    """
    specs = _specs(names, seed, scale)
    base = baseline_config()
    grid = [(spec, kind) for spec in specs for kind in kinds]
    jobs: List[ExperimentJob] = []
    for spec, kind in grid:
        for mechanism in (RepairMechanism.NONE,
                          RepairMechanism.TOS_POINTER_AND_CONTENTS):
            repaired = base.with_repair(mechanism)
            config = dataclasses.replace(
                repaired,
                predictor=dataclasses.replace(
                    repaired.predictor, direction_kind=kind),
            )
            jobs.append(ExperimentJob(spec, config, "cycle"))
    results = _executor(executor).run(jobs)
    rows = []
    for (spec, kind), (none, reference) in zip(grid, _chunks(results, 2)):
        rows.append([
            spec.name,
            kind,
            _pct(reference.cond_accuracy),
            _pct(none.return_accuracy),
            _pct(reference.return_accuracy),
            round(100.0 * (reference.ipc / none.ipc - 1.0), 2),
        ])
    headers = ["benchmark", "direction", "cond acc %",
               "ret acc (none) %", "ret acc (repaired) %",
               "repair speedup %"]
    return ("Ablation: repair payoff vs direction-predictor quality",
            headers, rows)


def ablation_fastsim_crosscheck(
    names: Sequence[str] = ("li", "go"),
    seed: int = 1,
    scale: float = 0.25,
    executor: Optional[SweepExecutor] = None,
) -> TableData:
    """A3: fast front-end model vs cycle model, hit-rate trends."""
    mechanisms = list(PRIMARY_MECHANISMS)
    specs = _specs(names, seed, scale)
    grid = [(spec, mechanism) for spec in specs for mechanism in mechanisms]
    jobs: List[ExperimentJob] = []
    for spec, mechanism in grid:
        config = baseline_config().with_repair(mechanism)
        jobs.append(ExperimentJob(spec, config, "cycle"))
        jobs.append(ExperimentJob(spec, config, "fast"))
    results = _executor(executor).run(jobs)
    rows = []
    for (spec, mechanism), (cycle_result, fast_result) in zip(
            grid, _chunks(results, 2)):
        rows.append([
            spec.name,
            str(mechanism),
            _pct(cycle_result.return_accuracy),
            _pct(fast_result.return_accuracy),
        ])
    headers = ["benchmark", "mechanism", "cycle ret %", "fast ret %"]
    return ("Ablation: cycle-model vs fast-model hit rates", headers, rows)


# ----------------------------------------------------------------------
# A4 / A5 / A6 / A9: the analysis instruments and the SMT front end.

def analysis_corruption(
    names: Sequence[str] = ("compress", "go", "li", "perl", "vortex"),
    seed: int = 1,
    scale: float = 0.25,
) -> TableData:
    """A4: each committed return labelled by the weakest repair that
    would have predicted it (the paper's Section 4 argument)."""
    from repro.analysis.corruption import CATEGORIES, CorruptionAnalyzer

    predictor = baseline_config().predictor
    rows = []
    for spec in _specs(names, seed, scale):
        breakdown = CorruptionAnalyzer(build_program(spec), predictor).run()
        rows.append([spec.name, breakdown.returns]
                    + [_pct(breakdown.fraction(c)) for c in CATEGORIES])
    headers = ["benchmark", "returns"] + [f"{c} %" for c in CATEGORIES]
    return ("Ablation: corruption-cause breakdown of returns", headers, rows)


def analysis_return_predictors(
    names: Sequence[str] = ("compress", "li", "perl", "vortex"),
    seed: int = 1,
    scale: float = 0.25,
) -> TableData:
    """A5: the RAS against general indirect-branch predictors on returns.

    The paper's related work: target-history mechanisms "do not achieve
    the near-100% accuracies possible with a return-address stack".
    """
    from repro.analysis.returns import compare_return_predictors

    specs = _specs(names, seed, scale)
    comparisons = [compare_return_predictors(build_program(spec))
                   for spec in specs]
    columns = sorted(comparisons[0].accuracy) if comparisons else []
    rows = [[spec.name, comparison.returns]
            + [_pct(comparison.accuracy[c]) for c in columns]
            for spec, comparison in zip(specs, comparisons)]
    headers = ["benchmark", "returns"] + [f"{c} %" for c in columns]
    return ("Ablation: return prediction — RAS vs indirect predictors",
            headers, rows)


def ablation_hardware_cost(
    seed: int = 1,
    scale: float = 0.25,
    executor: Optional[SweepExecutor] = None,
) -> TableData:
    """A6: storage cost of each mechanism next to li's measured hit
    rate; the paper's pointer+contents proposal sits at the knee."""
    from repro.analysis.hardware_cost import cost_table

    mechanisms = list(RepairMechanism)
    configs = [baseline_config().with_repair(m) for m in mechanisms]
    [li] = _hit_rate_rows(("li",), seed, scale, configs, executor)
    hit_rate = dict(zip((m.value for m in mechanisms), li[1:]))
    rows = [cost + [hit_rate[cost[0]]]
            for cost in cost_table(baseline_config().predictor)]
    headers = ["mechanism", "bits/branch", "extra stack bits",
               "total bits (20 in flight)", "li return acc %"]
    return ("Ablation: hardware cost vs benefit (32-entry RAS)",
            headers, rows)


def smt_stacks(
    names: Sequence[str] = ("li", "vortex"),
    threads: Sequence[int] = (2, 4),
    seed: int = 1,
    scale: float = 0.25,
) -> TableData:
    """A9: shared vs per-thread return-address stacks under SMT.
    Thread ``i`` runs the benchmark built with seed ``seed + i``."""
    from repro.smt import SmtFrontEndSim

    predictor = baseline_config().predictor
    rows = []
    for name in names:
        for count in threads:
            programs = [build_program(WorkloadSpec(name, seed + i, scale))
                        for i in range(count)]
            rows.append([name, count] + [
                _pct(SmtFrontEndSim(programs, predictor,
                                    per_thread_stacks=private)
                     .run().return_accuracy)
                for private in (False, True)])
    headers = ["benchmark", "threads", "shared stack ret %",
               "per-thread stacks ret %"]
    return ("SMT: shared vs per-thread return-address stacks",
            headers, rows)
