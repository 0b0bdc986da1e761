"""Fast, prediction-only simulation.

A classic trace-driven front-end model with wrong-path replay: the
correct path is the reference emulator's stream of committed control
transfers, predictor state is exercised in program order, and each
misprediction triggers a bounded walk down the *predicted* (wrong)
path during which calls and returns corrupt the return-address stack —
the first-order effect the paper studies — followed by checkpoint
repair. Roughly an order of magnitude faster than the cycle model;
used for large parameter sweeps (stack-depth sensitivity), as a
cross-check of the cycle model's hit-rate trends (ablation A3), and,
with several programs interleaved as SMT threads, for shared vs
per-thread stacks (ablation A9).

:mod:`repro.fastsim.batch` applies the same philosophy to recorded
traces: shards are decoded block-at-a-time into flat columns and
replayed with branch-class dispatch hoisted out of the inner loop,
bit-identical to the event-at-a-time oracle
(:func:`repro.trace.replay.replay_events`) but several times faster
(the executor's ``"batch"`` engine; see docs/performance.md).
"""

from repro.fastsim.batch import (
    EventBatch,
    decoder_backend,
    iter_event_batches,
    replay_shard_batched,
    replay_shard_batched_multi,
)
from repro.fastsim.frontend_sim import FastFrontEndSim, FastSimResult

__all__ = [
    "EventBatch",
    "FastFrontEndSim",
    "FastSimResult",
    "decoder_backend",
    "iter_event_batches",
    "replay_shard_batched",
    "replay_shard_batched_multi",
]
