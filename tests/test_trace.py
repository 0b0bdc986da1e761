"""Unit tests for the trace subsystem."""

import io

import pytest

from repro.config import RepairMechanism
from repro.emu import Emulator
from repro.isa.opcodes import ControlClass
from repro.trace import (
    ControlFlowEvent,
    TraceReader,
    TraceWriter,
    record_trace,
    replay_events,
    replay_events_multi,
)
from repro.trace.format import TraceFormatError
from repro.workloads import build_workload
from repro.workloads.kernels import fibonacci_kernel, loop_sum_kernel


class TestFormatRoundtrip:
    def _events(self):
        return [
            ControlFlowEvent(ControlClass.CALL_DIRECT, 100, 400, gap=3),
            ControlFlowEvent(ControlClass.RETURN, 440, 104, gap=9),
            ControlFlowEvent(ControlClass.COND_BRANCH, 104, 108, gap=0),
        ]

    def test_write_read_roundtrip(self):
        buffer = io.BytesIO()
        writer = TraceWriter(buffer)
        for event in self._events():
            writer.append(event)
        assert writer.close() == 3
        buffer.seek(0)
        reader = TraceReader(buffer)
        assert reader.count == 3
        assert reader.read_all() == self._events()

    def test_taken_property(self):
        assert ControlFlowEvent(ControlClass.CALL_DIRECT, 100, 400).taken
        assert not ControlFlowEvent(ControlClass.COND_BRANCH, 100, 104).taken

    def test_bad_magic_rejected(self):
        with pytest.raises(TraceFormatError):
            TraceReader(io.BytesIO(b"NOTATRACE" + b"\x00" * 16))

    def test_truncated_header_rejected(self):
        with pytest.raises(TraceFormatError):
            TraceReader(io.BytesIO(b"RA"))

    def test_truncated_body_rejected(self):
        buffer = io.BytesIO()
        writer = TraceWriter(buffer)
        writer.append(self._events()[0])
        writer.close()
        # keep the 24-byte header, the 16-byte block header and two
        # bytes of the compressed payload
        truncated = buffer.getvalue()[:24 + 16 + 2]
        reader = TraceReader(io.BytesIO(truncated))
        with pytest.raises(TraceFormatError, match="truncated payload"):
            reader.read_all()


class TestRecording:
    def test_event_count_matches_emulator(self):
        program = fibonacci_kernel(8)
        stats = Emulator(program).run()
        trace = record_trace(program)
        events = TraceReader(io.BytesIO(trace)).read_all()
        expected_controls = (stats.calls + stats.returns
                             + stats.cond_branches + stats.direct_jumps
                             + stats.indirect_jumps)
        assert len(events) == expected_controls

    def test_gaps_account_for_every_instruction(self):
        program = loop_sum_kernel(20)
        stats = Emulator(program).run()
        events = TraceReader(io.BytesIO(record_trace(program))).read_all()
        # every instruction is either an event or inside a gap, except
        # the trailing non-control tail (here: the halt).
        covered = len(events) + sum(e.gap for e in events)
        assert covered <= stats.instructions
        assert covered >= stats.instructions - 2

    def test_record_to_file(self, tmp_path):
        path = tmp_path / "t.trace"
        count = record_trace(fibonacci_kernel(6), str(path))
        with open(path, "rb") as stream:
            reader = TraceReader(stream)
            assert reader.count == count
            assert len(reader.read_all()) == count


class TestTraceRasEvaluator:
    """Capacity behaviour of the event-at-a-time replay, the oracle the
    batch engine is held to."""

    @pytest.fixture(scope="class")
    def events(self):
        program = build_workload("vortex", seed=1, scale=0.1)
        return TraceReader(io.BytesIO(record_trace(program))).read_all()

    def test_calls_balance_returns(self, events):
        calls = sum(1 for event in events if event.control.is_call)
        returns = sum(1 for event in events
                      if event.control is ControlClass.RETURN)
        assert calls == returns > 50

    def test_large_stack_is_perfect_without_wrong_paths(self, events):
        result = replay_events(events, ras_entries=128)
        assert result.accuracy == pytest.approx(1.0)
        assert result.overflows == 0

    def test_tiny_stack_overflows(self, events):
        result = replay_events(events, ras_entries=2)
        assert result.overflows > 0
        assert result.accuracy < 1.0

    def test_depth_sweep_monotone_ends(self, events):
        sweep = replay_events_multi(events, (1, 4, 64))
        assert sweep[64].accuracy >= sweep[1].accuracy

    def test_accepts_event_list(self):
        events = [
            ControlFlowEvent(ControlClass.CALL_DIRECT, 0, 100),
            ControlFlowEvent(ControlClass.RETURN, 140, 4),
        ]
        result = replay_events(events, ras_entries=8)
        assert result.returns == 1
        assert result.accuracy == pytest.approx(1.0)

    def test_empty_trace(self):
        result = replay_events([])
        assert result.returns == 0
        assert result.accuracy is None

    def test_linked_ras_mechanism(self, events):
        result = replay_events(
            events, ras_entries=64, mechanism=RepairMechanism.SELF_CHECKPOINT)
        assert result.accuracy > 0.99
