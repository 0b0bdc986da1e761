"""One-shot reproduction report.

``build_report`` renders the tables of EXPERIMENTS.md, in its order and
each from its one builder in :mod:`repro.core.tables`, as a single text
document: all 18 with ``full``, else the quick set (T1-T4, F1-F3). With
``full`` it is the programmatic twin of running the whole benchmark
harness. The CLI exposes it as ``repro-sim report [--full] [--out FILE]``.
"""

from __future__ import annotations

import inspect
import time
from typing import Dict, List, Sequence

from repro import __version__
from repro.core import tables as builders
from repro.stats.tables import format_table
from repro.workloads.profiles import BENCHMARK_NAMES

#: The sections of a report, one per EXPERIMENTS.md table and in its
#: order: (id, section title, name of the :mod:`repro.core.tables`
#: builder, include-in-quick-report).
SECTIONS = (
    ("T1", "baseline machine model", "table1", True),
    ("T2", "benchmark summary", "table2_workloads", True),
    ("T3", "baseline control-flow prediction", "table3_baseline", True),
    ("T4", "BTB-only return prediction", "table4_btb_only", True),
    ("F1", "hit rates by repair mechanism", "fig_hit_rates", True),
    ("F2", "speedup from repair", "fig_speedup", True),
    ("F3", "stack-depth sensitivity", "fig_stack_depth", True),
    ("F4", "multipath stack organisations", "fig_multipath", False),
    ("A1", "all repair mechanisms", "ablation_mechanisms", False),
    ("A2", "shadow-checkpoint slots", "ablation_shadow_slots", False),
    ("A4", "corruption-cause breakdown", "analysis_corruption", False),
    ("A5", "returns via general indirect predictors",
     "analysis_return_predictors", False),
    ("A6", "hardware cost vs benefit", "ablation_hardware_cost", False),
    ("A7", "direction-predictor families",
     "ablation_direction_predictors", False),
    ("A8", "checkpointed-contents depth", "ablation_contents_depth", False),
    ("A9", "SMT: per-thread stacks", "smt_stacks", False),
    ("A10", "BTB capacity vs BTB-only returns", "ablation_btb_capacity",
     False),
    ("A3", "model cross-check", "ablation_fastsim_crosscheck", False),
)


def report_section_ids(full: bool = True) -> List[str]:
    """The section ids a report will contain."""
    return [sid for sid, _, _, quick in SECTIONS if full or quick]


def _arguments(builder, names, seed, scale, executor) -> Dict[str, object]:
    """The report's arguments that ``builder`` takes. ``names`` goes only
    to a builder whose default is every benchmark; one with a curated
    subset (F3, F4, the ablations) keeps it."""
    params = inspect.signature(builder).parameters
    offered = {"seed": seed, "scale": scale, "executor": executor}
    if "names" in params and params["names"].default == BENCHMARK_NAMES:
        offered["names"] = names
    return {key: value for key, value in offered.items() if key in params}


def build_report(
    names: Sequence[str] = BENCHMARK_NAMES,
    seed: int = 1,
    scale: float = 0.25,
    full: bool = False,
    progress=None,
    executor=None,
) -> str:
    """Build the text report.

    Args:
        names: benchmarks to include where a builder sweeps every one.
        seed, scale: experiment knobs (see DESIGN.md).
        full: include the slow sections (multipath, ablations).
        progress: optional callable invoked with each section id.
        executor: optional :class:`~repro.core.executor.SweepExecutor`
            shared by every section (parallelism + result caching).
    """
    started = time.time()
    parts: List[str] = [
        "RETURN-ADDRESS-STACK REPAIR — reproduction report",
        f"repro {__version__} | seed={seed} scale={scale} "
        f"benchmarks={','.join(names)}",
        "=" * 72,
    ]
    for section_id, title, builder_name, quick in SECTIONS:
        if not full and not quick:
            continue
        if progress is not None:
            progress(section_id)
        builder = getattr(builders, builder_name)
        table_title, headers, rows = builder(
            **_arguments(builder, names, seed, scale, executor))
        parts.append("")
        parts.append(f"[{section_id}] {title}")
        parts.append("-" * 72)
        parts.append(format_table(headers, rows, title=table_title))
    parts.append("")
    parts.append(f"(generated in {time.time() - started:.1f}s; see "
                 "EXPERIMENTS.md for the paper-vs-measured discussion)")
    return "\n".join(parts)
