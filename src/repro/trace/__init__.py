"""Control-flow traces: record once, sweep predictors many times.

The paper's methodology is execution-driven, but trace-driven studies
are the classic cheap alternative: record the committed control-flow
stream once, then replay it through any number of predictor
configurations without re-emulating. This package provides the binary
trace container (`TraceWriter` / `TraceReader`: chunked, compressed,
CRC-protected — see docs/traces.md), a recorder that drives the
reference emulator, and the event-at-a-time return-address-stack
replay (`replay_events`, `replay_events_multi`) that the batched
engine in `repro.fastsim.batch` is held to. The corpus layer on top —
durable shard directories, manifests, ChampSim import — lives in
:mod:`repro.corpus`.

Limitation, by design: a control-flow trace contains only the committed
path, so trace-driven replay cannot model wrong-path corruption — use
`repro.fastsim` (wrong-path replay) or the cycle models for that. Trace
replay is the right tool for overflow/underflow and capacity
questions, which depend only on the committed call/return structure.
"""

from repro.trace.format import (
    ControlFlowEvent,
    TraceFormatError,
    TraceReader,
    TraceWriter,
    iter_control_events,
    iter_trace_file,
    record_trace,
    write_trace,
)
from repro.trace.replay import (
    TraceRasResult,
    TraceShardSpec,
    replay_events,
    replay_events_multi,
)

__all__ = [
    "ControlFlowEvent",
    "TraceFormatError",
    "TraceRasResult",
    "TraceReader",
    "TraceShardSpec",
    "TraceWriter",
    "iter_control_events",
    "iter_trace_file",
    "record_trace",
    "replay_events",
    "replay_events_multi",
    "write_trace",
]
