"""Trace analysis: span tree, ASCII waterfall, critical path, export.

All functions work on plain span dicts as produced by
``Span.to_json_dict`` and merged by :mod:`repro.obs.store` — keys
``name``/``ts``/``ms``/``pid``/``tid``/``span_id``/``parent_id``/
``attrs``. Spans missing identity fields are tolerated (they render as
roots); the analyses never assume a complete tree because a crashed
worker may legitimately leave holes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

#: attrs worth showing inline on waterfall rows, in display order.
_LABEL_ATTRS = ("engine", "workload", "sweep", "worker", "key", "jobs",
                "submitted", "outcome")


def _num(value: object, default: float = 0.0) -> float:
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return default


def _start(span: Dict[str, object]) -> float:
    return _num(span.get("ts"), _num(span.get("start_s")))


def _end(span: Dict[str, object]) -> float:
    return _start(span) + _num(span.get("ms")) / 1000.0


def build_tree(spans: Sequence[Dict[str, object]],
               ) -> Tuple[List[Dict[str, object]],
                          Dict[str, List[Dict[str, object]]]]:
    """Group spans into ``(roots, children_by_parent_id)``.

    A span is a root when it has no ``parent_id`` or its parent is not
    present in the merged trace (e.g. lost with a killed worker).
    Both lists come back ordered by wall start time.
    """
    by_id = {s.get("span_id"): s for s in spans if s.get("span_id")}
    roots: List[Dict[str, object]] = []
    children: Dict[str, List[Dict[str, object]]] = {}
    for item in spans:
        parent = item.get("parent_id")
        if parent and parent in by_id and by_id[parent] is not item:
            children.setdefault(str(parent), []).append(item)
        else:
            roots.append(item)
    roots.sort(key=_start)
    for bucket in children.values():
        bucket.sort(key=_start)
    return roots, children


def extent(spans: Sequence[Dict[str, object]]) -> Tuple[float, float]:
    """(earliest start, latest end) across the whole trace, wall secs."""
    if not spans:
        return 0.0, 0.0
    return (min(_start(s) for s in spans), max(_end(s) for s in spans))


def _label(span: Dict[str, object]) -> str:
    parts = [str(span.get("name", "?"))]
    attrs = span.get("attrs")
    if isinstance(attrs, dict):
        for key in _LABEL_ATTRS:
            if key in attrs:
                parts.append(f"{key}={attrs[key]}")
    return " ".join(parts)


def waterfall(spans: Sequence[Dict[str, object]], width: int = 100) -> str:
    """Render the span tree as an indented ASCII waterfall."""
    if not spans:
        return "(empty trace)"
    roots, children = build_tree(spans)
    t0, t1 = extent(spans)
    window = max(t1 - t0, 1e-9)
    bar_width = max(20, width - 46)
    label_width = max(24, width - bar_width - 22)
    lines = []
    trace_id = next((s.get("trace_id") for s in spans if s.get("trace_id")),
                    "?")
    lines.append(f"trace {trace_id} · {len(spans)} spans · "
                 f"{window * 1000.0:.1f} ms")
    lines.append(f"{'span':<{label_width}} {'':<{bar_width}} "
                 f"{'ms':>9}  pid")

    def emit(item: Dict[str, object], depth: int) -> None:
        label = ("  " * depth + _label(item))[:label_width]
        left = int((_start(item) - t0) / window * bar_width)
        size = max(1, int(_num(item.get("ms")) / 1000.0 / window * bar_width))
        size = min(size, bar_width - min(left, bar_width - 1))
        bar = " " * min(left, bar_width - 1) + "#" * size
        lines.append(f"{label:<{label_width}} {bar:<{bar_width}} "
                     f"{_num(item.get('ms')):>9.2f}  {item.get('pid', '-')}")
        span_id = item.get("span_id")
        for child in children.get(str(span_id), []) if span_id else []:
            emit(child, depth + 1)

    for root in roots:
        emit(root, 0)
    return "\n".join(lines)


def critical_path(spans: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """The chain of spans that bounds end-to-end latency.

    Starting from the longest root span, repeatedly descend into the
    child whose *end time* is latest — the stage the parent was waiting
    on when it finished. Returns the path (top-down), its duration, and
    ``coverage``: path duration over the whole trace's wall extent.
    For a healthy sweep trace the root is ``sweep/run`` and coverage
    is ~1.0; a low coverage
    means the trace has disconnected time the path cannot explain.
    """
    if not spans:
        return {"path": [], "duration_ms": 0.0, "trace_ms": 0.0,
                "coverage": 0.0}
    roots, children = build_tree(spans)
    root = max(roots, key=lambda s: _num(s.get("ms")))
    path = [root]
    current = root
    while True:
        span_id = current.get("span_id")
        kids = children.get(str(span_id), []) if span_id else []
        if not kids:
            break
        current = max(kids, key=_end)
        path.append(current)
    t0, t1 = extent(spans)
    trace_ms = (t1 - t0) * 1000.0
    duration_ms = _num(root.get("ms"))
    steps = []
    for item in path:
        steps.append({
            "name": item.get("name"),
            "ms": round(_num(item.get("ms")), 3),
            "pid": item.get("pid"),
            "span_id": item.get("span_id"),
            "attrs": item.get("attrs", {}),
        })
    return {
        "path": steps,
        "duration_ms": round(duration_ms, 3),
        "trace_ms": round(trace_ms, 3),
        "coverage": round(duration_ms / trace_ms, 4) if trace_ms > 0 else 0.0,
    }


def chrome_trace(spans: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Chrome trace-event JSON (load in Perfetto / chrome://tracing).

    Complete events (``ph: "X"``) on a microsecond timeline starting at
    the trace's earliest span; process/thread lanes come from the
    recording pid/tid so worker fan-out is visible.
    """
    t0, _ = extent(spans)
    events: List[Dict[str, object]] = []
    pids = []
    for item in spans:
        pid = item.get("pid", 0)
        if pid not in pids:
            pids.append(pid)
        args: Dict[str, object] = {}
        attrs = item.get("attrs")
        if isinstance(attrs, dict):
            args.update(attrs)
        for key in ("trace_id", "span_id", "parent_id"):
            if item.get(key):
                args[key] = item[key]
        name = str(item.get("name", "?"))
        events.append({
            "name": name,
            "cat": name.split("/", 1)[0],
            "ph": "X",
            "ts": round((_start(item) - t0) * 1e6, 1),
            "dur": round(_num(item.get("ms")) * 1000.0, 1),
            "pid": pid,
            "tid": item.get("tid", pid),
            "args": args,
        })
    for pid in pids:
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": f"repro pid {pid}"},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def summarize(spans: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Small rollup used by the CLI header and tests."""
    t0, t1 = extent(spans)
    by_name: Dict[str, int] = {}
    pids = set()
    for item in spans:
        by_name[str(item.get("name", "?"))] = \
            by_name.get(str(item.get("name", "?")), 0) + 1
        pids.add(item.get("pid"))
    return {
        "spans": len(spans),
        "wall_ms": round((t1 - t0) * 1000.0, 3),
        "processes": len(pids),
        "by_name": dict(sorted(by_name.items())),
    }

