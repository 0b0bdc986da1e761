"""Trace-driven return-address-stack evaluation.

Replays a recorded control-flow trace through a RAS (and a BTB for the
fallback path), measuring return accuracy without re-emulating the
program. No wrong paths exist in a committed trace, so this measures
the *capacity* behaviour — overflow and underflow under deep call
chains — in isolation from corruption.

:func:`replay_events` and :func:`replay_events_multi` step any event
iterable one event at a time, without materialising it; the multi form
evaluates a whole grid of stack sizes in one pass. They are the oracle
the batched engine (:mod:`repro.fastsim.batch`, the executor's
``"batch"`` engine) is held to, and :class:`_Lane` is the one lane
both drive (diffcheck steps it too).

:class:`TraceShardSpec` is the durable, picklable identity of one
on-disk trace shard; it is what corpus sweeps ship to executor workers
and what cache keys hash (via the shard checksum).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Optional, Sequence

from repro.bpred.btb import BranchTargetBuffer
from repro.bpred.ras import make_ras
from repro.config.options import RepairMechanism
from repro.isa.opcodes import WORD_SIZE, ControlClass
from repro.trace.format import ControlFlowEvent


class TraceRasResult:
    """Return-prediction summary of one trace replay."""

    __slots__ = ("returns", "hits", "overflows", "underflows")

    def __init__(self, returns: int, hits: int,
                 overflows: int, underflows: int) -> None:
        self.returns = returns
        self.hits = hits
        self.overflows = overflows
        self.underflows = underflows

    @property
    def accuracy(self) -> Optional[float]:
        if self.returns == 0:
            return None
        return self.hits / self.returns

    def __repr__(self) -> str:
        shown = "n/a" if self.accuracy is None else f"{self.accuracy:.4f}"
        return (f"TraceRasResult(returns={self.returns}, acc={shown}, "
                f"overflows={self.overflows})")


@dataclasses.dataclass(frozen=True)
class TraceShardSpec:
    """Identity of one on-disk trace shard.

    ``checksum`` (SHA-256 of the shard file) is the cache identity: two
    shards with equal checksums hold bit-identical traces, wherever
    their files live, so executor cache keys hash the checksum and name
    but never the path. The optional counts ride along so result
    summaries need not re-scan the shard.
    """

    name: str
    path: str
    checksum: Optional[str] = None
    events: Optional[int] = None
    calls: Optional[int] = None
    returns: Optional[int] = None


class _Lane:
    """One RAS configuration replaying the committed path.

    The one lane of every trace replay: the oracle
    (:func:`replay_events`) and diffcheck call :meth:`step` per event,
    the batch engine :meth:`replay_block` per block. It knows no
    organisation, only the :class:`~repro.bpred.ras.BaseRas` port, and
    builds a BTB fallback only for a stack that can fail to predict.
    """

    __slots__ = ("ras", "btb", "returns", "hits")

    def __init__(self, ras_entries: int, mechanism: RepairMechanism,
                 btb_fallback: bool) -> None:
        self.ras = make_ras(ras_entries, mechanism)
        self.btb = (BranchTargetBuffer()
                    if btb_fallback and not self.ras.always_predicts
                    else None)
        self.returns = 0
        self.hits = 0

    def step(self, event: ControlFlowEvent) -> Optional[int]:
        """Advance one event; returns the prediction made for a RETURN
        (``None`` both for non-returns and for no-prediction returns —
        callers that care about the distinction check ``event.control``).
        """
        control = event.control
        if control is ControlClass.RETURN:
            return self._retire(event.pc, event.next_pc)
        if control.is_call:
            self.ras.push(event.pc + WORD_SIZE)
        return None

    def _retire(self, pc: int, target: int) -> Optional[int]:
        predicted = self.ras.retire_return(target)
        btb = self.btb
        if btb is not None:
            if predicted is None:
                predicted = btb.lookup(pc)
            btb.update(pc, target, True)
        self.returns += 1
        if predicted == target:
            self.hits += 1
        return predicted

    def replay_block(self, classes: Sequence[int], pcs: Sequence[int],
                     next_pcs: Sequence[int], return_idx: int) -> None:
        """Replay parallel call/return columns (a class equal to
        ``return_idx`` is a return, any other a call): through the
        stack's block kernel when it has one, else one port call per
        event."""
        counts = self.ras.replay_committed(classes, pcs, next_pcs,
                                           return_idx)
        if counts is not None:
            self.returns += counts[0]
            self.hits += counts[1]
            return
        retire = self._retire
        push = self.ras.push
        for cls, pc, next_pc in zip(classes, pcs, next_pcs):
            if cls == return_idx:
                retire(pc, next_pc)
            else:
                push(pc + WORD_SIZE)

    def result(self) -> TraceRasResult:
        return TraceRasResult(
            self.returns, self.hits,
            self.ras.stats["overflows"].value,
            self.ras.stats["underflows"].value,
        )


def replay_events(
    events: Iterable[ControlFlowEvent],
    ras_entries: int = 32,
    mechanism: RepairMechanism = RepairMechanism.NONE,
    btb_fallback: bool = True,
) -> TraceRasResult:
    """Stream ``events`` through one RAS configuration.

    ``mechanism`` matters only for organisations whose *normal*
    behaviour differs (valid bits, self-checkpointing, ChampSim); with
    no wrong paths there is nothing to repair. The iterable is consumed exactly
    once and never materialised.
    """
    lane = _Lane(ras_entries, mechanism, btb_fallback)
    for event in events:
        lane.step(event)
    return lane.result()


def replay_events_multi(
    events: Iterable[ControlFlowEvent],
    sizes: Sequence[int],
    mechanism: RepairMechanism = RepairMechanism.NONE,
    btb_fallback: bool = True,
) -> Dict[int, TraceRasResult]:
    """Evaluate every stack size in one pass over ``events``.

    Each size gets fully independent predictor state, so the results
    are identical to running :func:`replay_events` once per size — but
    the trace is decoded once instead of ``len(sizes)`` times, which is
    what makes depth sweeps over compressed on-disk shards cheap.
    """
    lanes = [_Lane(size, mechanism, btb_fallback) for size in sizes]
    for event in events:
        for lane in lanes:
            lane.step(event)
    return {size: lane.result() for size, lane in zip(sizes, lanes)}
