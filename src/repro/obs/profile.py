"""Opt-in sampling profiler: signal-free, stdlib-only, thread-based.

Set ``REPRO_PROFILE=1`` and every sweep attaches a collapsed-stack
profile of its submitting thread to the ledger entry (under the
nondeterministic ``profile`` key) and to the trace store, powering
``repro-sim trace flame``.

The sampler is a daemon thread polling ``sys._current_frames()`` every
few milliseconds — no signals (safe inside threads and pool
workers), no C extensions, and zero cost when the env var is off.
Sampling bias: it sees only what the *target thread* is doing when the
sampler wakes, which is exactly the statistical view a flamegraph
wants. Stacks are collapsed to the standard ``root;...;leaf count``
format (Brendan Gregg's flamegraph.pl / speedscope both eat it).
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Dict, List, Optional

ENV_PROFILE = "REPRO_PROFILE"

DEFAULT_INTERVAL_S = 0.005
#: Hard cap on distinct stacks kept — a pathological workload cannot
#: balloon the ledger entry.
MAX_STACKS = 4096


def profiling_enabled() -> bool:
    return os.environ.get(ENV_PROFILE, "").strip().lower() in (
        "1", "true", "on", "yes",
    )


def _frame_label(frame) -> str:
    name = frame.f_code.co_name
    module = frame.f_globals.get("__name__", "?")
    return f"{module}.{name}"


def _collapse(frame) -> str:
    parts: List[str] = []
    while frame is not None:
        parts.append(_frame_label(frame))
        frame = frame.f_back
    parts.reverse()  # root first, leaf last — collapsed-stack order
    return ";".join(parts)


class SamplingProfiler:
    """Samples one thread's stack until stopped.

    >>> profiler = SamplingProfiler().start()
    >>> ...                       # the work being profiled
    >>> profiler.stop()
    >>> profiler.collapsed()      # ["mod.f;mod.g 42", ...]
    """

    def __init__(self, interval_s: float = DEFAULT_INTERVAL_S,
                 target_tid: Optional[int] = None) -> None:
        self.interval_s = max(0.001, float(interval_s))
        self.target_tid = target_tid
        self.samples = 0
        self.counts: Dict[str, int] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.started_s: float = 0.0
        self.duration_s: float = 0.0

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            return self
        if self.target_tid is None:
            self.target_tid = threading.get_ident()
        self.started_s = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            frames = sys._current_frames()
            frame = frames.get(self.target_tid)
            if frame is None:
                continue
            stack = _collapse(frame)
            if stack in self.counts or len(self.counts) < MAX_STACKS:
                self.counts[stack] = self.counts.get(stack, 0) + 1
            self.samples += 1

    def stop(self) -> "SamplingProfiler":
        if self._thread is None:
            return self
        self._stop.set()
        self._thread.join(timeout=2.0)
        self._thread = None
        self.duration_s = time.perf_counter() - self.started_s
        return self

    def collapsed(self, limit: Optional[int] = None) -> List[str]:
        """``stack count`` lines, hottest first."""
        ranked = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if limit is not None:
            ranked = ranked[:limit]
        return [f"{stack} {count}" for stack, count in ranked]

    def summary(self, top: int = 40) -> Optional[Dict[str, object]]:
        """Compact dict for a ledger entry, or None if nothing sampled."""
        if not self.samples:
            return None
        ranked = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return {
            "samples": self.samples,
            "interval_ms": round(self.interval_s * 1000.0, 3),
            "duration_s": round(self.duration_s, 3),
            "stacks": {stack: count for stack, count in ranked[:top]},
        }


def render_flame(collapsed_lines: List[str], width: int = 100,
                 limit: int = 30) -> str:
    """ASCII flame summary from collapsed-stack lines.

    Not a full flamegraph (that is what the speedscope/flamegraph.pl
    export is for) — a terminal-friendly hottest-stacks table with
    leaf-frame rollup, which is what you read first anyway.
    """
    stacks: List[tuple] = []
    leaf_totals: Dict[str, int] = {}
    total = 0
    for line in collapsed_lines:
        line = line.strip()
        if not line:
            continue
        stack, _, count_text = line.rpartition(" ")
        try:
            count = int(count_text)
        except ValueError:
            continue
        if not stack:
            continue
        stacks.append((count, stack))
        leaf = stack.rsplit(";", 1)[-1]
        leaf_totals[leaf] = leaf_totals.get(leaf, 0) + count
        total += count
    if not total:
        return "(no profile samples)"
    stacks.sort(key=lambda item: (-item[0], item[1]))
    bar_width = 24
    lines = [f"{total} samples · {len(stacks)} distinct stacks",
             "", "hot leaves:"]
    for leaf, count in sorted(leaf_totals.items(),
                              key=lambda kv: (-kv[1], kv[0]))[:10]:
        share = count / total
        bar = "#" * max(1, int(share * bar_width))
        lines.append(f"  {share * 100:5.1f}% {bar:<{bar_width}} {leaf}")
    lines.append("")
    lines.append("hot stacks:")
    for count, stack in stacks[:limit]:
        share = count / total
        tail = stack.split(";")
        shown = ";".join(tail[-4:])
        if len(tail) > 4:
            shown = "…;" + shown
        lines.append(f"  {share * 100:5.1f}% ({count:>5}) {shown[:width - 18]}")
    return "\n".join(lines)
