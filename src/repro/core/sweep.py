"""Programmatic parameter sweeps (the examples build on these).

Every sweep decomposes into independent jobs and routes them through a
:class:`~repro.core.executor.SweepExecutor`, so callers get parallelism
and result caching by passing ``executor=SweepExecutor(jobs=N)``. The
default executor runs serially with the process-default cache; results
are identical at every ``jobs`` setting.

Workload arguments accept either a prebuilt
:class:`~repro.isa.program.Program` (ad-hoc, uncacheable) or a
:class:`~repro.core.experiment.WorkloadSpec` (cacheable, and rebuilt
memoised inside each worker process).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.config.defaults import baseline_config
from repro.config.machine import MachineConfig
from repro.config.options import RepairMechanism, StackOrganization
from repro.core.executor import ExperimentJob, SweepExecutor
from repro.core.experiment import WorkloadSpec, multipath_machine
from repro.isa.program import Program

Workload = Union[Program, WorkloadSpec]


def _executor(executor: Optional[SweepExecutor]) -> SweepExecutor:
    return executor if executor is not None else SweepExecutor()


def mechanism_sweep(
    workload: Workload,
    mechanisms: Iterable[RepairMechanism],
    base: Optional[MachineConfig] = None,
    executor: Optional[SweepExecutor] = None,
) -> Dict[RepairMechanism, Dict[str, object]]:
    """Cycle-model run per repair mechanism; keyed summary dicts."""
    base = base or baseline_config()
    mechanisms = list(mechanisms)
    jobs = [ExperimentJob(workload, base.with_repair(mechanism), "cycle-fast")
            for mechanism in mechanisms]
    results = _executor(executor).run(jobs)
    return {mechanism: result.as_dict()
            for mechanism, result in zip(mechanisms, results)}


def stack_depth_jobs(
    workload: Workload,
    sizes: Sequence[int],
    mechanism: RepairMechanism = RepairMechanism.TOS_POINTER_AND_CONTENTS,
    base: Optional[MachineConfig] = None,
) -> List[ExperimentJob]:
    """The job list behind :func:`stack_depth_sweep`, one per depth.

    Exposed separately so a caller can hand the exact same cacheable
    jobs to its own executor without re-deriving configs.
    """
    repaired = (base or baseline_config()).with_repair(mechanism)
    return [ExperimentJob(workload, repaired.with_ras_entries(size), "frontend")
            for size in sizes]


def stack_depth_sweep(
    workload: Workload,
    sizes: Sequence[int],
    mechanism: RepairMechanism = RepairMechanism.TOS_POINTER_AND_CONTENTS,
    base: Optional[MachineConfig] = None,
    executor: Optional[SweepExecutor] = None,
) -> Dict[int, Optional[float]]:
    """Return-hit-rate per stack depth, on the front-end model.

    The repaired base config is derived once, outside the loop; each
    depth only swaps ``ras_entries``. Memoisation contract: a
    ``WorkloadSpec`` workload is built at most once per process — the
    executor's workers resolve it through
    :func:`~repro.core.experiment.build_program`, whose LRU cache keys
    on ``(name, seed, scale)`` — so an N-point sweep costs one program
    build per worker, not N. A prebuilt ``Program`` is shared as-is.
    """
    jobs = stack_depth_jobs(workload, sizes, mechanism=mechanism, base=base)
    results = _executor(executor).run(jobs)
    return {size: result.return_accuracy
            for size, result in zip(sizes, results)}


def multipath_sweep(
    workload: Workload,
    path_counts: Sequence[int],
    organizations: Iterable[StackOrganization] = tuple(StackOrganization),
    executor: Optional[SweepExecutor] = None,
) -> List[Dict[str, object]]:
    """IPC/accuracy grid over (paths, stack organisation)."""
    organizations = list(organizations)
    grid = [(paths, organization)
            for paths in path_counts for organization in organizations]
    jobs = [ExperimentJob(workload, multipath_machine(paths, organization),
                          "multipath-fast")
            for paths, organization in grid]
    results = _executor(executor).run(jobs)
    return [
        {
            "paths": paths,
            "organization": organization,
            "ipc": result.ipc,
            "return_accuracy": result.return_accuracy,
            "forks": result.counter("forks"),
            "fork_saved": result.counter("fork_saved_mispredictions"),
        }
        for (paths, organization), result in zip(grid, results)
    ]
