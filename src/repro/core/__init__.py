"""Experiment drivers: one function per table/figure of the paper.

This package is the reproduction's control room. ``experiment`` holds
the engine-agnostic runners; ``executor`` schedules independent jobs
over worker processes with an on-disk result cache; ``tables`` holds
the one builder of each EXPERIMENTS.md table, which builds the exact
rows its bench target, its CLI command and ``report`` print; ``sweep``
holds the parameter sweeps (stack depth, shadow slots, path counts).
"""

from repro.core.executor import (
    ExperimentJob,
    JobResult,
    ResultCache,
    SweepExecutor,
)
from repro.core.experiment import (
    WorkloadSpec,
    build_program,
    multipath_machine,
    run_cycle,
    run_fast,
    run_multipath,
)
from repro.core.sweep import (
    mechanism_sweep,
    multipath_sweep,
    stack_depth_jobs,
    stack_depth_sweep,
    trace_depth_sweep,
)
from repro.core.tables import (
    ablation_btb_capacity,
    ablation_contents_depth,
    ablation_direction_predictors,
    ablation_fastsim_crosscheck,
    ablation_mechanisms,
    ablation_shadow_slots,
    fig_hit_rates,
    fig_multipath,
    fig_speedup,
    fig_stack_depth,
    table1,
    table3_baseline,
    table4_btb_only,
)

__all__ = [
    "ExperimentJob",
    "JobResult",
    "ResultCache",
    "SweepExecutor",
    "WorkloadSpec",
    "ablation_btb_capacity",
    "ablation_contents_depth",
    "ablation_direction_predictors",
    "ablation_fastsim_crosscheck",
    "ablation_mechanisms",
    "ablation_shadow_slots",
    "build_program",
    "fig_hit_rates",
    "fig_multipath",
    "fig_speedup",
    "fig_stack_depth",
    "mechanism_sweep",
    "multipath_machine",
    "multipath_sweep",
    "run_cycle",
    "run_fast",
    "run_multipath",
    "stack_depth_jobs",
    "stack_depth_sweep",
    "table1",
    "table3_baseline",
    "table4_btb_only",
    "trace_depth_sweep",
]
