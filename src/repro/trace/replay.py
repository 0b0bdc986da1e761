"""Trace-driven return-address-stack evaluation.

Replays a recorded control-flow trace through a RAS (and a BTB for the
fallback path), measuring return accuracy without re-emulating the
program. No wrong paths exist in a committed trace, so this measures
the *capacity* behaviour — overflow and underflow under deep call
chains — in isolation from corruption. Sweeping stack sizes over a
recorded trace is hundreds of times faster than re-running the cycle
model.

Everything here streams: :func:`replay_events` consumes any event
iterable without materialising it, and :func:`replay_events_multi`
evaluates a whole grid of stack sizes in a single pass over the events
— the shape a depth sweep over an on-disk shard wants, since decoding
the trace once is the dominant cost.

:class:`TraceShardSpec` is the durable, picklable identity of one
on-disk trace shard; it is what corpus sweeps ship to executor workers
(see :mod:`repro.core.executor`'s ``"trace"`` engine) and what cache
keys hash (via the shard checksum).
"""

from __future__ import annotations

import dataclasses
import io
import os
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.bpred.btb import BranchTargetBuffer
from repro.bpred.ras import make_ras
from repro.config.options import RepairMechanism
from repro.errors import ReproError
from repro.isa.opcodes import WORD_SIZE, ControlClass
from repro.obs.capture import span
from repro.trace.format import (
    ControlFlowEvent,
    TraceReader,
    iter_trace_file,
)


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

    The one lane of every trace-replay engine: the streaming evaluator
    and diffcheck call :meth:`step` per event, the batch engine
    :meth:`replay_block` per block. It knows no organisation, only the
    :class:`~repro.bpred.ras.BaseRas` port, and builds a BTB fallback
    only for a stack that can fail to predict.
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


def _shard_parts(shard: Union[TraceShardSpec, str, os.PathLike]
                 ) -> "tuple[str, str]":
    """A shard's path and its label for spans."""
    if isinstance(shard, TraceShardSpec):
        return shard.path, shard.name
    path = os.fspath(shard)
    return path, path


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


def replay_shard(
    shard: Union[TraceShardSpec, str, os.PathLike],
    ras_entries: int = 32,
    mechanism: RepairMechanism = RepairMechanism.NONE,
    btb_fallback: bool = True,
) -> TraceRasResult:
    """Stream one on-disk shard (v1 or v2) through a RAS configuration."""
    path, label = _shard_parts(shard)
    with span("trace/replay", shard=label, entries=ras_entries):
        return replay_events(iter_trace_file(path), ras_entries, mechanism,
                             btb_fallback)


def replay_shard_multi(
    shard: Union[TraceShardSpec, str, os.PathLike],
    sizes: Sequence[int],
    mechanism: RepairMechanism = RepairMechanism.NONE,
    btb_fallback: bool = True,
) -> Dict[int, TraceRasResult]:
    """Depth-sweep one on-disk shard in a single streaming pass."""
    path, label = _shard_parts(shard)
    with span("trace/replay-multi", shard=label, sizes=len(sizes)):
        return replay_events_multi(iter_trace_file(path), sizes, mechanism,
                                   btb_fallback)


_EventSource = Callable[[], Iterator[ControlFlowEvent]]


class TraceRasEvaluator:
    """Replay traces through RAS configurations.

    Accepts trace ``bytes``, a path to an on-disk trace, a sequence of
    events, a zero-argument factory returning a fresh event iterator,
    or a one-shot iterator. All of these are consumed *streaming* — the
    evaluator never builds a full event list. Re-iterable sources
    (bytes, paths, sequences, factories) support any number of
    evaluations; a one-shot iterator supports exactly one pass and a
    second pass raises :class:`~repro.errors.ReproError` instead of
    silently replaying nothing.
    """

    def __init__(
        self,
        trace: Union[bytes, str, os.PathLike, Sequence[ControlFlowEvent],
                     Iterable[ControlFlowEvent], _EventSource],
    ) -> None:
        self._one_shot: Optional[Iterator[ControlFlowEvent]] = None
        self._consumed = False
        if isinstance(trace, (bytes, bytearray)):
            data = bytes(trace)
            self._source: _EventSource = (
                lambda: iter(TraceReader(io.BytesIO(data))))
        elif isinstance(trace, (str, os.PathLike)):
            path = os.fspath(trace)
            self._source = lambda: iter_trace_file(path)
        elif callable(trace):
            self._source = trace
        elif isinstance(trace, Sequence):
            self._source = lambda: iter(trace)
        else:
            self._one_shot = iter(trace)
            self._source = self._consume_one_shot

    def _consume_one_shot(self) -> Iterator[ControlFlowEvent]:
        if self._consumed:
            raise ReproError(
                "trace iterator already consumed; pass bytes, a path, a "
                "sequence, or an iterator factory to evaluate more than once")
        self._consumed = True
        assert self._one_shot is not None
        return self._one_shot

    @property
    def events(self) -> List[ControlFlowEvent]:
        """The full event list (materialises one streaming pass)."""
        return list(self._source())

    def evaluate(
        self,
        ras_entries: int = 32,
        mechanism: RepairMechanism = RepairMechanism.NONE,
        btb_fallback: bool = True,
    ) -> TraceRasResult:
        """Measure return accuracy for one stack configuration."""
        return replay_events(self._source(), ras_entries, mechanism,
                             btb_fallback)

    def depth_sweep(
        self,
        sizes: Iterable[int],
        mechanism: RepairMechanism = RepairMechanism.NONE,
    ) -> "dict[int, TraceRasResult]":
        """Capacity sweep: accuracy and overflow counts per stack size.

        Runs all sizes in one pass over the source (see
        :func:`replay_events_multi`); results are identical to calling
        :meth:`evaluate` per size.
        """
        return replay_events_multi(self._source(), list(sizes), mechanism)

    def call_return_counts(self) -> "tuple[int, int]":
        calls = 0
        returns = 0
        for event in self._source():
            if event.control.is_call:
                calls += 1
            elif event.control is ControlClass.RETURN:
                returns += 1
        return calls, returns
