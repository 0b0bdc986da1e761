"""The binary control-flow trace container (version 2, chunked).

A trace is a sequence of control-transfer events from the committed
instruction stream (non-control instructions are elided — they carry no
predictor-relevant information).

The container is a 24-byte header, then a run of zlib-compressed event
blocks, then a block index and a trailer so readers can seek without
scanning. Events carry 64-bit PCs (imported x86 traces need them) and
pack to 21 bytes before compression:

====== ===== ==========================================
offset bytes event field
====== ===== ==========================================
0      1     control class (ControlClass index)
1      8     PC of the control instruction (uint64 LE)
9      8     actual next PC (uint64 LE)
17     4     instructions since the previous event
====== ===== ==========================================

Each block header records the raw size, compressed size, event count
and a CRC-32 of the compressed payload, so corruption anywhere in a
block is detected and reported as a typed :class:`TraceFormatError`
rather than silently truncating the stream. The full layout is
documented in docs/traces.md.

:class:`TraceWriter` and :class:`TraceReader` stream: neither ever
materialises the full event list, so traces larger than RAM are fine.
Any other version number in the header (the retired flat version 1
included) is a :class:`TraceFormatError`.
"""

from __future__ import annotations

import io
import struct
import zlib
from typing import BinaryIO, Iterable, Iterator, List, Optional, Tuple, Union

from repro.emu.emulator import Emulator
from repro.errors import ReproError
from repro.isa.opcodes import ControlClass
from repro.isa.program import Program

MAGIC = b"RASTRACE"
INDEX_MAGIC = b"RASINDEX"
VERSION = 2
#: Events per compressed block (writer default).
DEFAULT_BLOCK_EVENTS = 4096

_PREFIX = struct.Struct("<8sI")          # magic, version
_HEADER = struct.Struct("<8sIIQ")        # magic, version, block_events, count
_EVENT = struct.Struct("<BQQI")          # class, pc64, next64, gap
_BLOCK = struct.Struct("<IIII")          # raw_size, comp_size, count, crc32
_INDEX_ENTRY = struct.Struct("<QII")     # file offset, comp_size, count
_TRAILER = struct.Struct("<8sQI")        # index magic, index offset, blocks

#: Order gives each ControlClass a stable byte encoding.
_CLASS_LIST = list(ControlClass)
_CLASS_INDEX = {cls: i for i, cls in enumerate(_CLASS_LIST)}


class TraceFormatError(ReproError):
    """The trace bytes are not a valid RASTRACE stream.

    Messages always carry the found-vs-expected values (sizes, magics,
    versions, CRCs) so a corrupt shard can be diagnosed from the error
    alone.
    """


class ControlFlowEvent:
    """One committed control transfer."""

    __slots__ = ("control", "pc", "next_pc", "gap")

    def __init__(self, control: ControlClass, pc: int, next_pc: int,
                 gap: int = 0) -> None:
        self.control = control
        self.pc = pc
        self.next_pc = next_pc
        #: Non-control instructions since the previous event.
        self.gap = gap

    @property
    def taken(self) -> bool:
        return self.next_pc != self.pc + 4

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ControlFlowEvent)
                and self.control is other.control
                and self.pc == other.pc
                and self.next_pc == other.next_pc
                and self.gap == other.gap)

    def __repr__(self) -> str:
        return (f"ControlFlowEvent({self.control.value}, pc={self.pc}, "
                f"next={self.next_pc}, gap={self.gap})")


class TraceWriter:
    """Stream events to a binary file object.

    The stream must be seekable: :meth:`close` appends the block index
    and patches the header's event count. Events are never buffered
    beyond one compression block, so writing is O(block) in memory
    regardless of trace length.
    """

    def __init__(self, stream: BinaryIO,
                 block_events: int = DEFAULT_BLOCK_EVENTS) -> None:
        if block_events < 1:
            raise TraceFormatError(
                f"block_events must be >= 1, got {block_events}")
        self._stream = stream
        self._count = 0
        self._block_events = block_events
        self._buffer: List[ControlFlowEvent] = []
        self._index: List[Tuple[int, int, int]] = []
        # Reserve the header; patched on close.
        self._stream.write(_HEADER.pack(MAGIC, VERSION, block_events, 0))

    def append(self, event: ControlFlowEvent) -> None:
        self._buffer.append(event)
        if len(self._buffer) >= self._block_events:
            self._flush_block()
        self._count += 1

    def _flush_block(self) -> None:
        raw = b"".join(
            _EVENT.pack(_CLASS_INDEX[event.control], event.pc,
                        event.next_pc, event.gap)
            for event in self._buffer)
        compressed = zlib.compress(raw, 6)
        offset = self._stream.tell()
        self._stream.write(_BLOCK.pack(
            len(raw), len(compressed), len(self._buffer),
            zlib.crc32(compressed)))
        self._stream.write(compressed)
        self._index.append((offset, len(compressed), len(self._buffer)))
        self._buffer.clear()

    def close(self) -> int:
        """Finalise the container; returns the event count.

        Flushes the tail block, appends the block index and trailer,
        then patches the header count.
        """
        if self._buffer:
            self._flush_block()
        index_offset = self._stream.tell()
        for offset, comp_size, count in self._index:
            self._stream.write(_INDEX_ENTRY.pack(offset, comp_size, count))
        self._stream.write(
            _TRAILER.pack(INDEX_MAGIC, index_offset, len(self._index)))
        self._stream.seek(0)
        self._stream.write(_HEADER.pack(
            MAGIC, VERSION, self._block_events, self._count))
        self._stream.flush()
        return self._count


class TraceReader:
    """Stream events from a binary trace.

    Iteration decodes incrementally, one block at a time, so a reader
    never holds more than a block of events.
    """

    def __init__(self, stream: BinaryIO) -> None:
        prefix = stream.read(_PREFIX.size)
        if len(prefix) != _PREFIX.size:
            raise TraceFormatError(
                f"truncated trace header: found {len(prefix)} bytes, "
                f"expected at least {_PREFIX.size}")
        magic, version = _PREFIX.unpack(prefix)
        if magic != MAGIC:
            raise TraceFormatError(
                f"bad magic: found {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise TraceFormatError(
                f"unsupported trace version: found {version}, "
                f"expected {VERSION}")
        rest = stream.read(_HEADER.size - _PREFIX.size)
        if len(rest) != _HEADER.size - _PREFIX.size:
            raise TraceFormatError(
                f"truncated trace header: found "
                f"{_PREFIX.size + len(rest)} bytes, "
                f"expected {_HEADER.size}")
        self.block_events, self.count = struct.unpack("<IQ", rest)
        self._stream = stream

    def __iter__(self) -> Iterator[ControlFlowEvent]:
        for raw, _count in self.iter_raw_blocks():
            for class_index, pc, next_pc, gap in _EVENT.iter_unpack(raw):
                if class_index >= len(_CLASS_LIST):
                    raise TraceFormatError(
                        f"bad control class: found {class_index}, expected "
                        f"< {len(_CLASS_LIST)}")
                yield ControlFlowEvent(
                    _CLASS_LIST[class_index], pc, next_pc, gap)

    def iter_raw_blocks(self) -> Iterator[Tuple[bytes, int]]:
        """Decode one block at a time: ``(raw event bytes, count)``.

        Runs every integrity check — header/payload truncation,
        event-count and size sanity, the per-block CRC, and
        decompression — so the event iterator and the batched replay
        engine (:mod:`repro.fastsim.batch`), which both walk blocks
        here, report corruption with exactly the same typed errors.
        """
        remaining = self.count
        block = 0
        while remaining > 0:
            header = self._stream.read(_BLOCK.size)
            if len(header) != _BLOCK.size:
                raise TraceFormatError(
                    f"block {block}: truncated header: found "
                    f"{len(header)} bytes, expected {_BLOCK.size}")
            raw_size, comp_size, count, crc = _BLOCK.unpack(header)
            if count == 0 or count > remaining:
                raise TraceFormatError(
                    f"block {block}: bad event count: found {count}, "
                    f"expected 1..{remaining}")
            if raw_size != count * _EVENT.size:
                raise TraceFormatError(
                    f"block {block}: bad raw size: found {raw_size}, "
                    f"expected {count * _EVENT.size}")
            compressed = self._stream.read(comp_size)
            if len(compressed) != comp_size:
                raise TraceFormatError(
                    f"block {block}: truncated payload: found "
                    f"{len(compressed)} bytes, expected {comp_size}")
            found_crc = zlib.crc32(compressed)
            if found_crc != crc:
                raise TraceFormatError(
                    f"block {block}: CRC mismatch: found {found_crc:#010x}, "
                    f"expected {crc:#010x}")
            try:
                raw = zlib.decompress(compressed)
            except zlib.error as error:
                raise TraceFormatError(
                    f"block {block}: undecompressable payload: {error}"
                ) from error
            if len(raw) != raw_size:
                raise TraceFormatError(
                    f"block {block}: bad decompressed size: found "
                    f"{len(raw)} bytes, expected {raw_size}")
            yield raw, count
            remaining -= count
            block += 1

    def read_all(self) -> List[ControlFlowEvent]:
        return list(self)

    def index(self) -> List[Tuple[int, int, int]]:
        """The block index: ``(file offset, compressed size, events)``
        per block, read from the trailer of a seekable stream.

        The stream position is restored afterwards, so iteration and
        index reads compose.
        """
        position = self._stream.tell()
        try:
            self._stream.seek(-_TRAILER.size, io.SEEK_END)
            trailer = self._stream.read(_TRAILER.size)
            if len(trailer) != _TRAILER.size:
                raise TraceFormatError(
                    f"truncated trace trailer: found {len(trailer)} bytes, "
                    f"expected {_TRAILER.size}")
            magic, index_offset, blocks = _TRAILER.unpack(trailer)
            if magic != INDEX_MAGIC:
                raise TraceFormatError(
                    f"bad index magic: found {magic!r}, "
                    f"expected {INDEX_MAGIC!r}")
            self._stream.seek(index_offset)
            payload = self._stream.read(blocks * _INDEX_ENTRY.size)
            if len(payload) != blocks * _INDEX_ENTRY.size:
                raise TraceFormatError(
                    f"truncated block index: found {len(payload)} bytes, "
                    f"expected {blocks * _INDEX_ENTRY.size}")
            return list(_INDEX_ENTRY.iter_unpack(payload))
        finally:
            self._stream.seek(position)


def iter_trace_file(path: str) -> Iterator[ControlFlowEvent]:
    """Stream the events of an on-disk trace."""
    with open(path, "rb") as stream:
        yield from TraceReader(stream)


def write_trace(
    destination: Union[str, BinaryIO],
    events: Iterable[ControlFlowEvent],
    block_events: int = DEFAULT_BLOCK_EVENTS,
) -> int:
    """Stream ``events`` into a trace container; returns the count."""
    own_file = isinstance(destination, str)
    stream = open(destination, "wb") if own_file else destination
    try:
        writer = TraceWriter(stream, block_events=block_events)
        for event in events:
            writer.append(event)
        return writer.close()
    finally:
        if own_file:
            stream.close()  # type: ignore[union-attr]


def iter_control_events(
    program: Program,
    max_instructions: int = 50_000_000,
) -> Iterator[ControlFlowEvent]:
    """Run ``program`` on the reference emulator, yielding its control
    transfers as they commit.

    This is the streaming core of :func:`record_trace` and of corpus
    ingestion: nothing is buffered, so arbitrarily long executions
    produce events in O(1) memory.
    """
    previous = -1
    emulator = Emulator(program, max_instructions=max_instructions)
    for pc, inst, next_pc, _, index in emulator.control_transfers():
        yield ControlFlowEvent(inst.control, pc, next_pc, index - previous - 1)
        previous = index


def record_trace(
    program: Program,
    destination: Optional[Union[str, BinaryIO]] = None,
    max_instructions: int = 50_000_000,
) -> Union[bytes, int]:
    """Run ``program`` on the reference emulator, recording its control
    transfers.

    With ``destination=None`` the trace is returned as ``bytes``; with a
    path or binary stream it is written there and the event count is
    returned.
    """
    events = iter_control_events(program, max_instructions=max_instructions)
    if destination is None:
        buffer = io.BytesIO()
        write_trace(buffer, events)
        return buffer.getvalue()
    return write_trace(destination, events)
