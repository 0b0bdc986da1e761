"""Trace-context propagation for sweep spans.

A :class:`TraceContext` names the trace a piece of work belongs to
(``trace_id``) and the span that work is nested under (``span_id``).
Contexts live on a per-thread stack: ``span()`` in
``repro.telemetry.spans`` pushes a child context while a span is open,
so any span recorded inside inherits the correct parent.  Crossing a
process boundary (a pool worker) serialises the current context with
:func:`to_wire` and rebuilds it on the far side with :func:`from_wire`.

This module must not import anything from ``repro.telemetry`` — the
span recorder imports *us* at module load.
"""

from __future__ import annotations

import os
import re
import threading
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

TRACE_ID_LEN = 32
SPAN_ID_LEN = 16

ENV_TRACE = "REPRO_TRACE"

_HEX_RE = re.compile(r"^[0-9a-f]+$")


@dataclass(frozen=True)
class TraceContext:
    """The ambient trace identity for work happening on this thread.

    ``span_id`` is the id of the *enclosing* span — the parent any new
    span should attach to.  An empty ``span_id`` marks a trace root:
    spans opened under it become roots of the span tree.
    """

    trace_id: str
    span_id: str = ""


class _Stack(threading.local):
    def __init__(self) -> None:
        self.items: list = []


_stack = _Stack()


def new_trace_id() -> str:
    return uuid.uuid4().hex


def new_span_id() -> str:
    return uuid.uuid4().hex[:SPAN_ID_LEN]


def tracing_enabled() -> bool:
    """Trace propagation is on by default; ``REPRO_TRACE=0`` disables it.

    Tracing only changes which *extra* fields ride on spans and ledger
    entries — all of them sit behind ``deterministic_view``, so results
    are bit-identical either way (asserted in tests).
    """
    return os.environ.get(ENV_TRACE, "1").strip().lower() not in (
        "0", "false", "off", "no",
    )


def current() -> Optional[TraceContext]:
    """The innermost active context on this thread, or None."""
    items = _stack.items
    return items[-1] if items else None


def push(ctx: TraceContext) -> int:
    """Push ``ctx``; returns a token for :func:`pop`."""
    _stack.items.append(ctx)
    return len(_stack.items) - 1


def pop(token: int) -> None:
    """Pop back to the depth recorded by :func:`push`.

    Truncating (rather than popping one element) keeps the stack sane
    even if a nested frame leaked a push.
    """
    del _stack.items[token:]


@contextmanager
def activate(ctx: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Run a block with ``ctx`` as the ambient trace context."""
    if ctx is None:
        yield None
        return
    token = push(ctx)
    try:
        yield ctx
    finally:
        pop(token)


def _valid_id(value: object, length: int) -> bool:
    return (isinstance(value, str) and len(value) == length
            and bool(_HEX_RE.match(value)) and set(value) != {"0"})


def to_wire(ctx: TraceContext) -> dict:
    """Picklable, JSON-safe form shipped with pool jobs."""
    wire = {"trace_id": ctx.trace_id}
    if ctx.span_id:
        wire["parent_id"] = ctx.span_id
    return wire


def from_wire(payload: object) -> Optional[TraceContext]:
    """Rebuild a context from :func:`to_wire` output; None if invalid."""
    if not isinstance(payload, Mapping):
        return None
    trace_id = payload.get("trace_id")
    if not _valid_id(trace_id, TRACE_ID_LEN):
        return None
    parent = payload.get("parent_id")
    span_id = parent if _valid_id(parent, SPAN_ID_LEN) else ""
    return TraceContext(trace_id=trace_id, span_id=span_id)
