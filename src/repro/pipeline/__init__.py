"""The single-path out-of-order pipeline (HydraScalar analogue).

Execution-driven and cycle-level: instructions are fetched along the
*predicted* path, executed functionally at dispatch (with per-
instruction undo logs), issued out of order through an RUU/LSQ window,
and committed in order. Mispredicted branches resolve at writeback;
recovery rewinds the undo logs, restores the return-address stack
through the configured repair mechanism and redirects fetch. Wrong-path
instructions therefore really fetch, execute, touch the caches and
corrupt the RAS — the phenomenon the paper measures.
"""

from repro.pipeline.inflight import InflightInstruction, dest_reg, source_regs
from repro.pipeline.results import SimResult


def __getattr__(name: str) -> object:
    # the reference CPU and its timeline load on first access: the
    # columnar engines import this package for ``inflight`` and
    # ``results`` alone, and should not pay for them
    if name == "SinglePathCPU":
        from repro.pipeline.cpu import SinglePathCPU
        return SinglePathCPU
    if name in ("TimelineRecorder", "render_timeline"):
        from repro.pipeline import timeline
        return getattr(timeline, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "InflightInstruction",
    "SimResult",
    "SinglePathCPU",
    "TimelineRecorder",
    "dest_reg",
    "render_timeline",
    "source_regs",
]
