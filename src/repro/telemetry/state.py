"""The process-wide telemetry switch.

Telemetry is **default-on** and stdlib-only; the cost when enabled is a
handful of monotonic-clock reads and dict updates per *sweep* (never
per simulated instruction), budgeted and asserted at <3% overhead in
the tests. It can be turned off two ways:

* ``REPRO_TELEMETRY=0`` (or ``false``/``off``/``no``) in the
  environment, read through :func:`repro.config.env.telemetry_enabled`
  on every call, so it also governs executor worker processes; or
* :func:`set_enabled`/:func:`disabled` in code, which win over the
  environment — the CLI's ``--no-telemetry`` flag routes through
  :func:`disabled`.

This lives in its own module so every telemetry layer (and the
instrumented subsystems) can import the switch without cycles.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.config import env

#: Programmatic override: ``None`` defers to the environment.
_OVERRIDE: Optional[bool] = None


def enabled() -> bool:
    """Is telemetry currently on? (override first, then the env)."""
    if _OVERRIDE is not None:
        return _OVERRIDE
    return env.telemetry_enabled()


def set_enabled(value: Optional[bool]) -> None:
    """Force telemetry on/off; ``None`` restores environment control."""
    global _OVERRIDE
    _OVERRIDE = value


@contextmanager
def disabled() -> Iterator[None]:
    """Scope with telemetry forced off; restores the prior state."""
    previous = _OVERRIDE
    set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)
