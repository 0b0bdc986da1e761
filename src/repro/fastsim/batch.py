"""Batched trace replay: the corpus sweep hot path, vectorised.

The oracle in :mod:`repro.trace.replay` steps one Python-level event at
a time: every committed control transfer becomes a
:class:`~repro.trace.format.ControlFlowEvent` object, walks an ``Enum``
property or two, and crosses a ``lane.step`` call — fine for
correctness work, interpreter-bound for corpus sweeps. This module
replays the same shards block-at-a-time instead:

1. **Decode** — each zlib block of a shard is decoded straight into
   flat columns via numpy when it imports, or ``struct``/regex scans
   otherwise. No per-event objects are built, and every integrity
   check of the event reader still runs (the block walk *is* the
   reader's, :meth:`~repro.trace.format.TraceReader.iter_raw_blocks`),
   so a corrupt shard raises the identical typed
   :class:`~repro.trace.format.TraceFormatError`.
2. **Filter** — branch-class dispatch is hoisted out of the inner
   loop: only calls and returns touch a return-address stack, so each
   block is reduced once to its stack-relevant events and conditional
   branches / jumps (the bulk of any trace) never reach Python code.
3. **Replay** — each RAS configuration is the oracle's own lane
   (:class:`repro.trace.replay._Lane`), fed whole blocks. A stack
   with a block kernel (:meth:`~repro.bpred.ras.BaseRas.replay_committed`;
   today the circular buffer under every repair but valid bits) runs
   the block as local-variable integer ops, updating counters once per
   block; any other stack is stepped one port call per event. Either
   way the semantics are those of :mod:`repro.bpred.ras`, written once.

Parity is the contract: for every repair mechanism and stack size, a
batched replay produces **bit-identical** return/hit/overflow/underflow
counters to :func:`repro.trace.replay.replay_events` — the
differential tests in ``tests/test_batch_replay.py`` sweep randomized
workloads and the checked-in sample corpus to hold that line. Throughput is tracked by
``benchmarks/bench_replay_throughput.py`` (see docs/performance.md).

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
from typing import BinaryIO, Dict, Iterator, List, Sequence, Union

from repro.config.options import RepairMechanism
from repro.obs.capture import span
from repro.trace.format import TraceFormatError, TraceReader
from repro.trace.format import (  # the record layout and class encoding
    _CLASS_INDEX,
    _CLASS_LIST,
    _EVENT,
)
from repro.trace.replay import TraceRasResult, TraceShardSpec, _Lane
from repro.isa.opcodes import ControlClass

_UNTRIED = object()
#: numpy, ``None`` where it does not import, or ``_UNTRIED`` until
#: :func:`decoder_backend` first tries it.
_np = _UNTRIED
#: numpy record dtype of one event; set when numpy loads.
_DTYPE = None

_NUM_CLASSES = len(_CLASS_LIST)
_RETURN_IDX = _CLASS_INDEX[ControlClass.RETURN]
_CALL_IDXS = frozenset(
    _CLASS_INDEX[cls] for cls in _CLASS_LIST if cls.is_call)

_EVENT_SIZE = _EVENT.size
_PCS = struct.Struct("<QQ")

#: Class bytes that touch the RAS (calls push, returns pop).
_STACK_CLASS_BYTES = bytes(sorted(_CALL_IDXS | {_RETURN_IDX}))
_STACK_RE = re.compile(b"[" + re.escape(_STACK_CLASS_BYTES) + b"]")
#: Any class byte outside the encodable range is container corruption.
_BAD_CLASS_RE = re.compile(
    b"[" + re.escape(bytes([_NUM_CLASSES])) + b"-\xff]")


def decoder_backend() -> str:
    """Which block decoder runs: ``"numpy"`` when numpy imports,
    ``"python"`` otherwise. The first call tries the import."""
    global _np, _DTYPE
    if _np is _UNTRIED:
        try:  # optional accelerator; the stdlib path is always available
            import numpy
        except ImportError:  # pragma: no cover - stdlib path tested anyway
            _np = None
        else:
            _DTYPE = numpy.dtype(
                [("cls", "u1"), ("pc", "<u8"), ("next", "<u8"), ("gap", "<u4")])
            assert _DTYPE.itemsize == _EVENT_SIZE
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
    # Same message the event reader raises for the same byte.
    return TraceFormatError(
        f"bad control class: found {found}, expected < {_NUM_CLASSES}")


def _decode_block_numpy(raw: bytes, count: int) -> EventBatch:
    rec = _np.frombuffer(raw, dtype=_DTYPE)
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


def _decode_block_python(raw: bytes, count: int) -> EventBatch:
    class_bytes = raw[::_EVENT_SIZE]
    bad = _BAD_CLASS_RE.search(class_bytes)
    if bad is not None:
        raise _bad_class_error(class_bytes[bad.start()])
    unpack_from = _PCS.unpack_from
    classes: List[int] = []
    pcs: List[int] = []
    next_pcs: List[int] = []
    for match in _STACK_RE.finditer(class_bytes):
        index = match.start()
        classes.append(class_bytes[index])
        pc, next_pc = unpack_from(raw, index * _EVENT_SIZE + 1)
        pcs.append(pc)
        next_pcs.append(next_pc)
    return EventBatch(classes, pcs, next_pcs, count)


def iter_event_batches(
    source: Union[str, os.PathLike, bytes, BinaryIO],
) -> Iterator[EventBatch]:
    """Decode a trace (path, bytes, or stream) one physical compressed
    block at a time."""
    decode = (_decode_block_numpy if decoder_backend() == "numpy"
              else _decode_block_python)
    if isinstance(source, (bytes, bytearray)):
        yield from _iter_stream(io.BytesIO(bytes(source)), decode)
    elif isinstance(source, (str, os.PathLike)):
        with open(os.fspath(source), "rb") as stream:
            yield from _iter_stream(stream, decode)
    else:
        yield from _iter_stream(source, decode)


def _iter_stream(stream: BinaryIO, decode) -> Iterator[EventBatch]:
    for raw, count in TraceReader(stream).iter_raw_blocks():
        yield decode(raw, count)


# ----------------------------------------------------------------------
# Replay: each RAS configuration is a repro.trace.replay lane fed one
# block at a time.

def _replay_shard(shard: Union[TraceShardSpec, str, os.PathLike],
                  lanes: Sequence[_Lane]) -> None:
    """Decode the shard once into every lane."""
    if isinstance(shard, TraceShardSpec):
        shard = shard.path
    for batch in iter_event_batches(shard):
        for lane in lanes:
            lane.replay_block(batch.classes, batch.pcs, batch.next_pcs,
                              _RETURN_IDX)


def replay_shard_batched(
    shard: Union[TraceShardSpec, str, os.PathLike],
    ras_entries: int = 32,
    mechanism: RepairMechanism = RepairMechanism.NONE,
    btb_fallback: bool = True,
) -> TraceRasResult:
    """Replay one on-disk shard through one RAS configuration; the
    counters equal :func:`repro.trace.replay.replay_events` over the
    shard's events."""
    lane = _Lane(ras_entries, mechanism, btb_fallback)
    with span("replay/batch"):
        _replay_shard(shard, [lane])
    return lane.result()


def replay_shard_batched_multi(
    shard: Union[TraceShardSpec, str, os.PathLike],
    sizes: Sequence[int],
    mechanism: RepairMechanism = RepairMechanism.NONE,
    btb_fallback: bool = True,
) -> Dict[int, TraceRasResult]:
    """Every stack size in one decode pass; independent lane state per
    size, so the counters equal
    :func:`repro.trace.replay.replay_events_multi`."""
    lanes = [_Lane(size, mechanism, btb_fallback) for size in sizes]
    with span("replay/batch-multi"):
        _replay_shard(shard, lanes)
    return {size: lane.result() for size, lane in zip(sizes, lanes)}
