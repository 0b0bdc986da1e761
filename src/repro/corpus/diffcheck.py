"""Differential cross-validation against a reference ChampSim model.

The paper's repair mechanisms are only as credible as the RAS model
they run on, so this module replays any trace shard through **two**
implementations side by side and demands bit-identical predictions:

* *ours* — the production replay lane
  (:class:`repro.trace.replay._Lane`, the one lane every trace-replay
  engine drives), stepped once per event over the
  :class:`~repro.bpred.ras.BaseRas` port of whichever organisation the
  mechanism names: a return is retired through
  :meth:`~repro.bpred.ras.BaseRas.retire_return` (for ``champsim``,
  ChampSim's ``prediction`` then ``calibrate_call_size``), a call pushes
  its return address;
* *reference* — :class:`ReferenceReturnStack`, a deliberately
  straight-line transliteration of ChampSim's ``return_stack``
  (``btb/basic_btb/return_stack.cc``), kept free of every abstraction
  the production class uses so the two cannot share a bug.

Divergence is judged **per return event**: the two predicted targets
must be equal (and hence hit/miss must agree). The result is a
machine-readable :class:`DiffReport` — exact hit/event pairs for both
sides, the PR 5 parity pattern applied cross-implementation — whose
``first_divergence`` block carries the event index, pc/target, both
predictions, and a ring of the preceding events so a red CI gate is
diagnosable from the artifact alone (see docs/validation.md).

For the ``champsim`` mechanism the acceptance bar is **zero
divergences on every shard**; other mechanisms diverge wherever their
organisation genuinely differs (informative, not an error, unless you
``ensure()``).

Fault injection is a test seam, not a knob: ``tests/test_diffcheck.py``
and the corpus-smoke CI job replace this module's ``_Lane`` with a
subclass that mispredicts one return. The reference still replays the
real trace, so the gate must go red. A swapped lane would write wrong
counts under the shard's real cache key, so such a run must not use
the result cache (``cache=None``, or ``--no-cache`` on the CLI).
"""

from __future__ import annotations

import collections
import dataclasses
import os
from typing import Deque, Dict, Iterable, List, Optional, Union

from repro.config.options import RepairMechanism
from repro.errors import DivergenceError
from repro.isa.opcodes import ControlClass
from repro.obs.capture import span
from repro.trace.format import ControlFlowEvent, iter_trace_file
from repro.trace.replay import TraceShardSpec, _Lane

#: Bump when the DiffReport JSON layout changes shape.
DIFF_SCHEMA = 1

#: How many preceding events the first-divergence context ring keeps.
CONTEXT_EVENTS = 8


class ReferenceReturnStack:
    """Straight-line transliteration of ChampSim's ``return_stack``.

    Intentionally mirrors the C++ (SNIPPET 1) statement by statement —
    ``std::deque`` stack, ``call_size_trackers`` indexed by the call
    site's low bits, the ``<= 10``-byte calibration heuristic, and the
    backwards-return counter — and deliberately shares no code with
    the production port in :mod:`repro.bpred.ras`.
    """

    def __init__(self, max_size: int = 64,
                 num_call_size_trackers: int = 1024) -> None:
        self.stack: Deque[int] = collections.deque()
        self.max_size = max_size
        self.call_size_trackers = [4] * num_call_size_trackers
        self.num_times_returned_backwards = 0
        self._index_mask = num_call_size_trackers - 1

    def prediction(self) -> Optional[int]:
        # C++ returns {champsim::address{}, true} on empty; the null
        # address never matches a real target, so ``None`` is faithful.
        if not self.stack:
            return None
        target = self.stack[-1]
        return target + self.call_size_trackers[target & self._index_mask]

    def push(self, ip: int) -> None:
        self.stack.append(ip)
        if len(self.stack) > self.max_size:
            self.stack.popleft()

    def calibrate_call_size(self, branch_target: int) -> None:
        if not self.stack:
            return
        call_ip = self.stack.pop()
        if call_ip > branch_target and \
                self.num_times_returned_backwards < 10:
            self.num_times_returned_backwards += 1
        estimated_call_instr_size = (
            call_ip - branch_target if call_ip > branch_target
            else branch_target - call_ip)
        if estimated_call_instr_size <= 10:
            self.call_size_trackers[call_ip & self._index_mask] = \
                estimated_call_instr_size


@dataclasses.dataclass(frozen=True)
class DiffReport:
    """Machine-readable outcome of one differential shard replay."""

    shard: str
    checksum: Optional[str]
    variant: str
    ras_entries: int
    events: int
    returns: int
    ours_hits: int
    reference_hits: int
    divergences: int
    #: Event index, pc, target, both predictions, and the preceding
    #: events, for the first return where the two models disagreed.
    first_divergence: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        return self.divergences == 0

    @property
    def pairs(self) -> Dict[str, "tuple[int, int]"]:
        """Exact ``(hits, returns)`` pairs, one per implementation."""
        return {
            "ours": (self.ours_hits, self.returns),
            "reference": (self.reference_hits, self.returns),
        }

    def ensure(self) -> "DiffReport":
        """Raise :class:`DivergenceError` unless the replay was clean."""
        if self.ok:
            return self
        where = ""
        if self.first_divergence is not None:
            where = (f"; first at event {self.first_divergence['event']}"
                     f" (pc=0x{self.first_divergence['pc']:x},"
                     f" ours={self.first_divergence['ours']},"
                     f" reference={self.first_divergence['reference']})")
        raise DivergenceError(
            f"shard {self.shard!r}: {self.divergences} diverging returns "
            f"between {self.variant!r} and the reference ChampSim model "
            f"over {self.returns} returns{where}")

    def to_json_dict(self) -> Dict[str, object]:
        data = dataclasses.asdict(self)
        data["schema"] = DIFF_SCHEMA
        data["ok"] = self.ok
        return data

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "DiffReport":
        schema = data.get("schema")
        if schema != DIFF_SCHEMA:
            raise DivergenceError(
                f"unsupported diff report schema: found {schema!r}, "
                f"expected {DIFF_SCHEMA}")
        return cls(
            shard=str(data["shard"]),
            checksum=(None if data.get("checksum") is None
                      else str(data["checksum"])),
            variant=str(data["variant"]),
            ras_entries=int(data["ras_entries"]),  # type: ignore[arg-type]
            events=int(data["events"]),  # type: ignore[arg-type]
            returns=int(data["returns"]),  # type: ignore[arg-type]
            ours_hits=int(data["ours_hits"]),  # type: ignore[arg-type]
            reference_hits=int(data["reference_hits"]),  # type: ignore[arg-type]
            divergences=int(data["divergences"]),  # type: ignore[arg-type]
            first_divergence=data.get("first_divergence"),  # type: ignore[arg-type]
        )


def _event_summary(event: ControlFlowEvent, index: int) -> Dict[str, object]:
    return {
        "event": index,
        "class": event.control.value,
        "pc": event.pc,
        "next_pc": event.next_pc,
    }


def diff_events(
    events: Iterable[ControlFlowEvent],
    ras_entries: int = 64,
    mechanism: RepairMechanism = RepairMechanism.CHAMPSIM,
    btb_fallback: bool = False,
    shard_name: str = "events",
    checksum: Optional[str] = None,
    context_events: int = CONTEXT_EVENTS,
) -> DiffReport:
    """Replay ``events`` through our lane and the reference side by side.

    ``btb_fallback`` defaults off so the comparison isolates the RAS —
    the reference model has no BTB, and a fallback hit on our side
    would read as a spurious divergence.
    """
    lane = _Lane(ras_entries, mechanism, btb_fallback)
    reference = ReferenceReturnStack(max_size=ras_entries)
    ring: Deque[Dict[str, object]] = collections.deque(
        maxlen=max(1, context_events))
    total = returns = ours_hits = reference_hits = divergences = 0
    first: Optional[Dict[str, object]] = None
    for index, event in enumerate(events):
        control = event.control
        if control is ControlClass.RETURN:
            reference_predicted = reference.prediction()
            reference.calibrate_call_size(event.next_pc)
            ours_predicted = lane.step(event)
            returns += 1
            ours_hit = ours_predicted == event.next_pc
            reference_hit = reference_predicted == event.next_pc
            ours_hits += ours_hit
            reference_hits += reference_hit
            if ours_predicted != reference_predicted:
                divergences += 1
                if first is None:
                    first = {
                        "event": index,
                        "pc": event.pc,
                        "next_pc": event.next_pc,
                        "ours": ours_predicted,
                        "reference": reference_predicted,
                        "ours_hit": ours_hit,
                        "reference_hit": reference_hit,
                        "context": list(ring),
                    }
        else:
            if control.is_call:
                reference.push(event.pc)
            lane.step(event)
        ring.append(_event_summary(event, index))
        total += 1
    return DiffReport(
        shard=shard_name,
        checksum=checksum,
        variant=mechanism.value,
        ras_entries=ras_entries,
        events=total,
        returns=returns,
        ours_hits=ours_hits,
        reference_hits=reference_hits,
        divergences=divergences,
        first_divergence=first,
    )


def diff_shard(
    shard: Union[TraceShardSpec, str, os.PathLike],
    ras_entries: int = 64,
    mechanism: RepairMechanism = RepairMechanism.CHAMPSIM,
    btb_fallback: bool = False,
) -> DiffReport:
    """Stream one on-disk shard through the differential harness."""
    if isinstance(shard, TraceShardSpec):
        path, name, checksum = shard.path, shard.name, shard.checksum
    else:
        path = os.fspath(shard)
        name, checksum = path, None
    with span("corpus/diffcheck"):
        return diff_events(
            iter_trace_file(path), ras_entries=ras_entries,
            mechanism=mechanism, btb_fallback=btb_fallback,
            shard_name=name, checksum=checksum)


def diff_corpus(
    store,
    ras_entries: int = 64,
    mechanism: RepairMechanism = RepairMechanism.CHAMPSIM,
    executor=None,
    names: Optional[Iterable[str]] = None,
) -> List[DiffReport]:
    """Differentially replay every selected shard of a corpus.

    Counts are fanned over the executor's ``"diffcheck"`` engine
    (parallel, cached by shard checksum); only shards whose cached
    counts show divergences are re-replayed directly, to recover the
    full first-divergence context the cached counters cannot carry.
    """
    from repro.config.defaults import baseline_config
    from repro.core.executor import ExperimentJob, SweepExecutor

    specs = [store.spec(record) for record in store.records(names=names)]
    if executor is None:
        executor = SweepExecutor()
    config = baseline_config().with_repair(mechanism) \
                              .with_ras_entries(ras_entries)
    jobs = [ExperimentJob(spec, config, engine="diffcheck")
            for spec in specs]
    results = executor.run(jobs)
    reports: List[DiffReport] = []
    for spec, result in zip(specs, results):
        if result.counter("divergences"):
            reports.append(diff_shard(spec, ras_entries=ras_entries,
                                      mechanism=mechanism))
        else:
            reports.append(DiffReport(
                shard=spec.name,
                checksum=spec.checksum,
                variant=mechanism.value,
                ras_entries=ras_entries,
                events=result.instructions,
                returns=result.counter("returns"),
                ours_hits=result.counter("return_hits"),
                reference_hits=result.counter("reference_hits"),
                divergences=0,
            ))
    return reports
