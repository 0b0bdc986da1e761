"""Engine-agnostic experiment runners."""

from __future__ import annotations

import dataclasses
import functools
from typing import TYPE_CHECKING, Optional, Tuple

from repro.config.defaults import baseline_config
from repro.config.machine import MachineConfig
from repro.config.options import StackOrganization
from repro.fastsim.frontend_sim import FastFrontEndSim, FastSimResult
from repro.isa.program import Program
from repro.pipeline.results import SimResult
from repro.workloads.generator import build_workload

if TYPE_CHECKING:
    from repro.multipath.cpu import MultipathCPU
    from repro.pipeline.cpu import SinglePathCPU


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """Identifies one synthetic-benchmark build.

    The triple ``(name, seed, scale)`` fully determines the generated
    program (workload generation is seeded and deterministic), which
    makes a spec the unit of identity for both program memoisation and
    the executor's on-disk result cache. Specs are tiny and picklable,
    so they — not built programs — are what jobs ship to worker
    processes.
    """

    name: str
    seed: int = 1
    scale: float = 1.0


@functools.lru_cache(maxsize=64)
def _cached_build(name: str, seed: int, scale: float) -> Program:
    return build_workload(name, seed=seed, scale=scale)


def build_program(spec: WorkloadSpec) -> Program:
    """Build (and memoise) the program for ``spec``.

    Memoisation contract: within one process, equal specs return the
    *same* ``Program`` object (LRU keyed on ``(name, seed, scale)``),
    so a sweep of N configs over one workload pays for one build. Each
    executor worker process holds its own memo, warmed on first use —
    callers should pass specs around and resolve them as late as
    possible rather than pre-building programs.
    """
    return _cached_build(spec.name, spec.seed, spec.scale)


def run_cycle(
    program: Program,
    config: Optional[MachineConfig] = None,
    max_instructions: Optional[int] = None,
) -> Tuple[SimResult, SinglePathCPU]:
    """Run the reference single-path cycle model; returns (result, cpu).

    This is the ``"cycle"`` executor engine: the execution-driven
    out-of-order pipeline with real wrong-path execution
    (docs/architecture.md §3). The live ``cpu`` comes back alongside
    the result for callers that want post-run structures (BTB hit
    rate, pipeline timelines); sweep code should go through
    :class:`~repro.core.executor.SweepExecutor` instead, which caches
    and parallelises. :func:`repro.fastsim.cycle.run_cycle_fast` is
    the bit-identical columnar twin (``"cycle-fast"``, ~3x faster —
    see docs/engines.md).
    """
    # the reference engines load on first use: the tables run on the
    # columnar twins, so most commands never import them
    from repro.pipeline.cpu import SinglePathCPU

    cpu = SinglePathCPU(program, config, max_instructions=max_instructions)
    return cpu.run(), cpu


def run_multipath(
    program: Program,
    config: MachineConfig,
    max_instructions: Optional[int] = None,
) -> Tuple[SimResult, MultipathCPU]:
    """Run the reference multipath cycle model; returns (result, cpu).

    The ``"multipath"`` executor engine: forking path contexts with
    per-path / unified / checkpointed stacks — the machinery behind
    the paper's §5 result (docs/architecture.md §4). ``config`` is
    required because multipath only makes sense with a path budget;
    build one with :func:`multipath_machine`.
    :func:`repro.fastsim.multipath.run_multipath_fast` is the
    bit-identical work-list twin (``"multipath-fast"``).
    """
    from repro.multipath.cpu import MultipathCPU

    cpu = MultipathCPU(program, config, max_instructions=max_instructions)
    return cpu.run(), cpu


def run_frontend(
    program: Program,
    config: Optional[MachineConfig] = None,
) -> FastSimResult:
    """Run the prediction-only front-end model (the ``"frontend"`` engine).

    Unlike the fast *cycle* engines, this is a different, cheaper
    model — predictor state in program order plus a bounded wrong-path
    walk, with a first-order cycle estimate (docs/architecture.md §5).
    Use it for hit-rate trends over large grids, not for IPC claims;
    it carries no bit-parity contract against the cycle models.
    """
    predictor = (config or MachineConfig()).predictor
    return FastFrontEndSim(program, predictor).run()


def multipath_machine(
    paths: int,
    organization: StackOrganization,
    base: Optional[MachineConfig] = None,
) -> MachineConfig:
    """A multipath machine with front-end bandwidth scaled to paths.

    The paper notes multipath execution "requires ... more fetch,
    rename, and issue bandwidth"; without it every fork halves the
    per-path fetch rate and the organisation comparison is drowned in
    front-end starvation. We scale fetch/decode width and the IFQ with
    the path budget, leaving the window and backend untouched. The
    default ``base`` is :func:`baseline_config`, whose predictor and
    memory sub-configs the result shares.
    """
    config = (base or baseline_config()).with_multipath(paths, organization)
    factor = max(1, paths // 2)
    return dataclasses.replace(
        config,
        core=dataclasses.replace(
            config.core,
            fetch_width=config.core.fetch_width * factor,
            decode_width=config.core.decode_width * factor,
            ifq_size=config.core.ifq_size * factor,
        ),
    )
