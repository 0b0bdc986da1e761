"""Batched trace replay: the corpus sweep hot path, vectorised.

The streaming evaluator in :mod:`repro.trace.replay` dispatches one
Python-level event at a time: every committed control transfer becomes
a :class:`~repro.trace.format.ControlFlowEvent` object, walks an
``Enum`` property or two, and crosses a ``lane.step`` call — fine for
correctness work, interpreter-bound for corpus sweeps. This module
replays the same shards block-at-a-time instead:

1. **Decode** — each zlib block of a v2 shard (or a pseudo-block slice
   of a v1 body) is decoded straight into flat columns via numpy when
   it imports, or ``struct``/regex scans otherwise. No per-event
   objects are built, and every integrity check of the streaming
   reader still runs (the block walk *is* the streaming reader's, see
   :meth:`~repro.trace.format.TraceReader.iter_raw_blocks`), so a
   corrupt shard raises the identical typed
   :class:`~repro.trace.format.TraceFormatError`.
2. **Filter** — branch-class dispatch is hoisted out of the inner
   loop: only calls and returns touch a return-address stack, so each
   block is reduced once to its stack-relevant events and conditional
   branches / jumps (the bulk of any trace) never reach Python code.
3. **Replay** — each RAS configuration is the streaming engine's own
   lane (:class:`repro.trace.replay._Lane`), fed whole blocks. A stack
   with a block kernel (:meth:`~repro.bpred.ras.BaseRas.replay_committed`;
   today the circular buffer under every repair but valid bits) runs
   the block as local-variable integer ops, updating counters once per
   block; any other stack is stepped one port call per event. Either
   way the semantics are those of :mod:`repro.bpred.ras`, written once.

Parity is the contract: for every repair mechanism, stack size, and
container version, a batched replay produces **bit-identical**
return/hit/overflow/underflow counters to
:func:`repro.trace.replay.replay_events` — the differential tests in
``tests/test_batch_replay.py`` sweep randomized workloads and the
checked-in sample corpus to hold that line. Throughput is tracked by
``benchmarks/bench_replay_throughput.py`` and gated in CI (see
docs/performance.md).

The platform alone picks the decoder: numpy when it imports, the
stdlib path otherwise. The import is tried at the first block decode,
not when this module loads, so a process that replays no trace (every
table command) never loads numpy. The parity suite runs both decoders,
forcing the stdlib path by setting this module's ``_np`` to ``None``.
"""

from __future__ import annotations

import io
import os
import re
import struct
from typing import BinaryIO, Dict, Iterable, Iterator, List, Sequence, Union

from repro.config.options import RepairMechanism
from repro.obs.capture import span
from repro.trace.format import (
    DEFAULT_BLOCK_EVENTS,
    TraceFormatError,
    TraceReader,
)
from repro.trace.format import _CLASS_INDEX, _CLASS_LIST  # stable byte encoding
from repro.trace.replay import (TraceRasResult, TraceShardSpec, _Lane,
                                _shard_parts)
from repro.isa.opcodes import ControlClass

_UNTRIED = object()
#: numpy, ``None`` where it does not import, or ``_UNTRIED`` until
#: :func:`decoder_backend` first tries it.
_np = _UNTRIED
#: numpy record dtype of each container version, keyed by event size;
#: filled when numpy loads.
_DTYPES: Dict[int, object] = {}

_NUM_CLASSES = len(_CLASS_LIST)
_RETURN_IDX = _CLASS_INDEX[ControlClass.RETURN]
_CALL_IDXS = frozenset(
    _CLASS_INDEX[cls] for cls in _CLASS_LIST if cls.is_call)

#: Fixed record widths of the two container versions (see trace.format).
_V1_EVENT_SIZE = struct.calcsize("<BIII")
_V2_EVENT_SIZE = struct.calcsize("<BQQI")

_PCS_V1 = struct.Struct("<II")
_PCS_V2 = struct.Struct("<QQ")

#: Class bytes that touch the RAS (calls push, returns pop).
_STACK_CLASS_BYTES = bytes(sorted(_CALL_IDXS | {_RETURN_IDX}))
_STACK_RE = re.compile(b"[" + re.escape(_STACK_CLASS_BYTES) + b"]")
#: Any class byte outside the encodable range is container corruption.
_BAD_CLASS_RE = re.compile(
    b"[" + re.escape(bytes([_NUM_CLASSES])) + b"-\xff]")


def decoder_backend() -> str:
    """Which block decoder runs: ``"numpy"`` when numpy imports,
    ``"python"`` otherwise. The first call tries the import."""
    global _np
    if _np is _UNTRIED:
        try:  # optional accelerator; the stdlib path is always available
            import numpy
        except ImportError:  # pragma: no cover - stdlib path tested anyway
            _np = None
        else:
            _DTYPES[_V1_EVENT_SIZE] = numpy.dtype(
                [("cls", "u1"), ("pc", "<u4"), ("next", "<u4"), ("gap", "<u4")])
            _DTYPES[_V2_EVENT_SIZE] = numpy.dtype(
                [("cls", "u1"), ("pc", "<u8"), ("next", "<u8"), ("gap", "<u4")])
            assert all(dt.itemsize == size for size, dt in _DTYPES.items())
            _np = numpy
    return "python" if _np is None else "numpy"


class EventBatch:
    """One decoded block, reduced to its stack-relevant columns.

    ``classes``/``pcs``/``next_pcs`` are parallel Python lists holding
    only call and return events (everything else is inert to a RAS);
    ``events`` is the block's full event count, kept for throughput
    accounting.
    """

    __slots__ = ("classes", "pcs", "next_pcs", "events")

    def __init__(self, classes: List[int], pcs: List[int],
                 next_pcs: List[int], events: int) -> None:
        self.classes = classes
        self.pcs = pcs
        self.next_pcs = next_pcs
        self.events = events

    def __len__(self) -> int:
        return len(self.classes)


def _bad_class_error(found: int) -> TraceFormatError:
    # Same message the streaming reader raises for the same byte.
    return TraceFormatError(
        f"bad control class: found {found}, expected < {_NUM_CLASSES}")


def _decode_block_numpy(raw: bytes, event_size: int,
                        count: int) -> EventBatch:
    rec = _np.frombuffer(raw, dtype=_DTYPES[event_size])
    classes = rec["cls"]
    bad = classes >= _NUM_CLASSES
    if bad.any():
        raise _bad_class_error(int(classes[int(_np.flatnonzero(bad)[0])]))
    mask = classes == _RETURN_IDX
    for index in _CALL_IDXS:
        mask |= classes == index
    keep = _np.flatnonzero(mask)
    return EventBatch(
        classes[keep].tolist(),
        rec["pc"][keep].tolist(),
        rec["next"][keep].tolist(),
        count,
    )


def _decode_block_python(raw: bytes, event_size: int,
                         count: int) -> EventBatch:
    class_bytes = raw[::event_size]
    bad = _BAD_CLASS_RE.search(class_bytes)
    if bad is not None:
        raise _bad_class_error(class_bytes[bad.start()])
    unpack_from = (_PCS_V1 if event_size == _V1_EVENT_SIZE
                   else _PCS_V2).unpack_from
    classes: List[int] = []
    pcs: List[int] = []
    next_pcs: List[int] = []
    for match in _STACK_RE.finditer(class_bytes):
        index = match.start()
        classes.append(class_bytes[index])
        pc, next_pc = unpack_from(raw, index * event_size + 1)
        pcs.append(pc)
        next_pcs.append(next_pc)
    return EventBatch(classes, pcs, next_pcs, count)


def iter_event_batches(
    source: Union[str, os.PathLike, bytes, BinaryIO],
    block_events: int = DEFAULT_BLOCK_EVENTS,
) -> Iterator[EventBatch]:
    """Decode a trace (path, bytes, or stream) block-at-a-time.

    ``block_events`` only shapes v1 pseudo-blocks; v2 traces yield
    their physical compressed blocks.
    """
    decode = (_decode_block_numpy if decoder_backend() == "numpy"
              else _decode_block_python)
    if isinstance(source, (bytes, bytearray)):
        yield from _iter_stream(io.BytesIO(bytes(source)), decode,
                                block_events)
    elif isinstance(source, (str, os.PathLike)):
        with open(os.fspath(source), "rb") as stream:
            yield from _iter_stream(stream, decode, block_events)
    else:
        yield from _iter_stream(source, decode, block_events)


def _iter_stream(stream: BinaryIO, decode, block_events: int
                 ) -> Iterator[EventBatch]:
    reader = TraceReader(stream)
    for event_size, raw, count in reader.iter_raw_blocks(block_events):
        yield decode(raw, event_size, count)


# ----------------------------------------------------------------------
# Replay entry points, mirroring repro.trace.replay. Each RAS
# configuration is a repro.trace.replay lane fed one block at a time.

def _replay(batches: Iterable[EventBatch], lanes: Sequence[_Lane]
            ) -> "tuple[int, int]":
    """Feed every batch to every lane; the blocks and events seen."""
    blocks = events = 0
    for batch in batches:
        blocks += 1
        events += batch.events
        for lane in lanes:
            lane.replay_block(batch.classes, batch.pcs, batch.next_pcs,
                              _RETURN_IDX)
    return blocks, events


def replay_batches(
    batches: Iterable[EventBatch],
    ras_entries: int = 32,
    mechanism: RepairMechanism = RepairMechanism.NONE,
    btb_fallback: bool = True,
) -> TraceRasResult:
    """Run pre-decoded batches through one RAS configuration."""
    lane = _Lane(ras_entries, mechanism, btb_fallback)
    _replay(batches, [lane])
    return lane.result()


def replay_batches_multi(
    batches: Iterable[EventBatch],
    sizes: Sequence[int],
    mechanism: RepairMechanism = RepairMechanism.NONE,
    btb_fallback: bool = True,
) -> Dict[int, TraceRasResult]:
    """Every stack size in one decode pass; independent lane state per
    size, so results equal per-size :func:`replay_batches` runs."""
    lanes = [_Lane(size, mechanism, btb_fallback) for size in sizes]
    _replay(batches, lanes)
    return {size: lane.result() for size, lane in zip(sizes, lanes)}


def _replay_shard(path: str, lanes: Sequence[_Lane], trace_span) -> None:
    """Decode ``path`` once into every lane; record blocks and events."""
    blocks, events = _replay(iter_event_batches(path), lanes)
    if trace_span is not None:
        trace_span.set(blocks=blocks, events=events)


def replay_shard_batched(
    shard: Union[TraceShardSpec, str, os.PathLike],
    ras_entries: int = 32,
    mechanism: RepairMechanism = RepairMechanism.NONE,
    btb_fallback: bool = True,
) -> TraceRasResult:
    """Batched equivalent of :func:`repro.trace.replay.replay_shard`."""
    path, label = _shard_parts(shard)
    lane = _Lane(ras_entries, mechanism, btb_fallback)
    with span("replay/batch", shard=label, entries=ras_entries,
              decoder=decoder_backend()) as trace_span:
        _replay_shard(path, [lane], trace_span)
    return lane.result()


def replay_shard_batched_multi(
    shard: Union[TraceShardSpec, str, os.PathLike],
    sizes: Sequence[int],
    mechanism: RepairMechanism = RepairMechanism.NONE,
    btb_fallback: bool = True,
) -> Dict[int, TraceRasResult]:
    """Batched equivalent of
    :func:`repro.trace.replay.replay_shard_multi`: one decode pass
    feeds every stack size."""
    path, label = _shard_parts(shard)
    lanes = [_Lane(size, mechanism, btb_fallback) for size in sizes]
    with span("replay/batch-multi", shard=label, sizes=len(sizes),
              decoder=decoder_backend()) as trace_span:
        _replay_shard(path, lanes, trace_span)
    return {size: lane.result() for size, lane in zip(sizes, lanes)}
