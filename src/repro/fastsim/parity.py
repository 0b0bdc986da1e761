"""Differential-parity harness: fast cycle engines vs their references.

The columnar engines (:mod:`repro.fastsim.cycle` and
:mod:`repro.fastsim.multipath`) promise **bit-identical counters** to
the reference execution-driven CPUs (:mod:`repro.pipeline` and
:mod:`repro.multipath`) — not "close", not "within tolerance":
identical. That promise is what lets the executor serve a fast-engine
result anywhere a reference result is wanted, and this module is the
instrument that holds the line.

The harness runs a (program, config) pair through both engines,
flattens every statistic either one reported into a plain dict — each
:class:`~repro.stats.counters.Counter` as its integer value, each
:class:`~repro.stats.counters.Rate` as its exact ``(hits, events)``
integer pair so no float rounding can mask a drift — and compares the
dicts key for key. A missing key on either side is itself a mismatch:
an engine cannot pass by simply not reporting a counter.

Three layers of API, outermost first:

* :func:`parity_sweep` — sweep benchmark × repair-mechanism × stack
  size (and path count × stack organisation for multipath), returning
  one :class:`ParityReport` per cell. This is what
  ``repro-sim parity`` and the CI matrix run.
* :func:`check_cycle_parity` / :func:`check_multipath_parity` — one
  (program, config) cell.
* :func:`flatten_group` / :func:`compare_flat` — the dict builders, so
  tests can corrupt a flattened side and prove the harness detects it.

Failures are loud by construction: :meth:`ParityReport.ensure` raises
:class:`ParityError` naming every diverging counter with both values.
The tests in ``tests/test_parity_harness.py`` inject corrupted
counters to prove a silent pass is impossible.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config.defaults import baseline_config
from repro.config.machine import MachineConfig
from repro.config.options import RepairMechanism, StackOrganization
from repro.core.experiment import (
    multipath_machine,
    run_cycle,
    run_multipath,
)
from repro.errors import ReproError
from repro.isa.program import Program
from repro.stats.counters import Counter, Gauge, Histogram, Rate, StatGroup
from repro.workloads.generator import build_workload

#: Flattened statistic value: ``int`` for counters, ``(hits, events)``
#: for rates, ``float`` for gauges, sorted item tuple for histograms.
FlatValue = object


class ParityError(ReproError):
    """Raised when a fast engine's counters diverge from its reference."""


def flatten_group(group: StatGroup) -> Dict[str, FlatValue]:
    """Flatten a :class:`StatGroup` into an exactly-comparable dict.

    Rates flatten to their integer ``(hits, events)`` pair rather than
    the derived float, so two engines cannot "agree" through rounding
    while their raw event streams differ.
    """
    flat: Dict[str, FlatValue] = {}
    for name in group.names():
        stat = group[name]
        if isinstance(stat, Counter):
            flat[name] = stat.value
        elif isinstance(stat, Rate):
            flat[name] = (stat.hits, stat.events)
        elif isinstance(stat, Gauge):
            flat[name] = stat.value
        elif isinstance(stat, Histogram):
            flat[name] = tuple(sorted(stat.buckets.items()))
        else:  # pragma: no cover - no other stat kinds exist today
            flat[name] = repr(stat)
    return flat


@dataclasses.dataclass(frozen=True)
class Mismatch:
    """One diverging statistic: its name and the two observed values."""

    name: str
    reference: FlatValue
    fast: FlatValue

    def __str__(self) -> str:
        return f"{self.name}: reference={self.reference!r} fast={self.fast!r}"


@dataclasses.dataclass(frozen=True)
class ParityReport:
    """Outcome of one fast-vs-reference comparison cell."""

    label: str
    reference: Dict[str, FlatValue]
    fast: Dict[str, FlatValue]
    mismatches: Tuple[Mismatch, ...]

    @property
    def matches(self) -> bool:
        return not self.mismatches

    def ensure(self) -> "ParityReport":
        """Return self if clean, raise :class:`ParityError` otherwise."""
        if self.mismatches:
            lines = "\n  ".join(str(m) for m in self.mismatches)
            raise ParityError(
                f"parity violation in {self.label} "
                f"({len(self.mismatches)} diverging counters):\n  {lines}")
        return self


def compare_flat(
    reference: Dict[str, FlatValue],
    fast: Dict[str, FlatValue],
    label: str = "cell",
) -> ParityReport:
    """Compare two flattened stat dicts key-for-key.

    Keys present on only one side are reported as mismatches against
    the sentinel string ``"<absent>"`` — an engine that drops a counter
    fails parity rather than shrinking the comparison surface.
    """
    mismatches: List[Mismatch] = []
    for name in sorted(set(reference) | set(fast)):
        ref_value = reference.get(name, "<absent>")
        fast_value = fast.get(name, "<absent>")
        if ref_value != fast_value:
            mismatches.append(Mismatch(name, ref_value, fast_value))
    return ParityReport(label=label, reference=reference, fast=fast,
                        mismatches=tuple(mismatches))


def _headline(result) -> Dict[str, FlatValue]:
    """The scalar headline numbers every engine reports."""
    return {
        "=instructions": result.instructions,
        "=cycles": result.cycles,
        "=ipc": result.ipc,
    }


def check_cycle_parity(
    program: Program,
    config: Optional[MachineConfig] = None,
    max_instructions: Optional[int] = None,
    label: str = "cycle",
) -> ParityReport:
    """Run reference ``repro.pipeline`` and the columnar engine; compare."""
    from repro.fastsim.cycle import run_cycle_fast

    config = config or baseline_config()
    ref_result, _ = run_cycle(program, config,
                              max_instructions=max_instructions)
    fast_result, _ = run_cycle_fast(program, config,
                                    max_instructions=max_instructions)
    reference = flatten_group(ref_result.group)
    reference.update(_headline(ref_result))
    fast = flatten_group(fast_result.group)
    fast.update(_headline(fast_result))
    return compare_flat(reference, fast, label=label)


def check_multipath_parity(
    program: Program,
    config: MachineConfig,
    max_instructions: Optional[int] = None,
    label: str = "multipath",
) -> ParityReport:
    """Run reference ``repro.multipath`` and its fast twin; compare."""
    from repro.fastsim.multipath import run_multipath_fast

    ref_result, _ = run_multipath(program, config,
                                  max_instructions=max_instructions)
    fast_result, _ = run_multipath_fast(program, config,
                                        max_instructions=max_instructions)
    reference = flatten_group(ref_result.group)
    reference.update(_headline(ref_result))
    fast = flatten_group(fast_result.group)
    fast.update(_headline(fast_result))
    return compare_flat(reference, fast, label=label)


def parity_sweep(
    names: Sequence[str],
    seed: int = 1,
    scale: float = 0.02,
    mechanisms: Optional[Iterable[RepairMechanism]] = None,
    ras_entries: Sequence[int] = (8, 32),
    paths: Sequence[int] = (2,),
    organizations: Optional[Iterable[StackOrganization]] = None,
    include_multipath: bool = True,
) -> List[ParityReport]:
    """Sweep the full parity matrix and return one report per cell.

    Single-path cells cover every repair mechanism × stack size for
    each benchmark; multipath cells cover path count × stack
    organisation (per-path stacks subsume the repair axis there — the
    paper's Figure 9 configuration space). Nothing raises: callers
    inspect ``report.matches`` (the CLI prints a table; the tests call
    :meth:`ParityReport.ensure` per cell).
    """
    mechanisms = tuple(mechanisms) if mechanisms else tuple(RepairMechanism)
    organizations = (tuple(organizations) if organizations
                     else tuple(StackOrganization))
    reports: List[ParityReport] = []
    for name in names:
        program = build_workload(name, seed=seed, scale=scale)
        for mechanism in mechanisms:
            for entries in ras_entries:
                config = (baseline_config()
                          .with_repair(mechanism)
                          .with_ras_entries(entries))
                label = (f"cycle/{name}/{mechanism.value}/"
                         f"ras{entries}")
                reports.append(check_cycle_parity(program, config,
                                                  label=label))
        if not include_multipath:
            continue
        for path_budget in paths:
            for organization in organizations:
                config = multipath_machine(path_budget, organization)
                label = (f"multipath/{name}/p{path_budget}/"
                         f"{organization.value}")
                reports.append(check_multipath_parity(
                    program, config, label=label))
    return reports
