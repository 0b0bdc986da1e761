"""The ``REPRO_*`` environment knobs, read in one place.

The five variables of docs/performance.md §3 are read here and in no
other module. Each function reads its variable on every call, never at
import, so a process may change a knob between calls: the benchmark
harness points ``REPRO_CACHE_DIR`` at a fresh root between CLI
commands. A command-line flag, where one exists, wins over the
variable, and the variable wins over the default.

An unset or empty variable means the default. The on/off knobs accept
``1/0``, ``true/false``, ``on/off`` and ``yes/no`` in any case; any
other value, or a number that does not parse, raises
:class:`~repro.errors.ConfigError` naming the variable, which
``repro-sim`` prints as one line before exiting with status 2.
"""

from __future__ import annotations

import os
import pathlib
from typing import Callable, TypeVar

from repro.errors import ConfigError

_Number = TypeVar("_Number", int, float)

_SWITCH = {"1": True, "true": True, "on": True, "yes": True,
           "0": False, "false": False, "off": False, "no": False}


def _number(name: str, parse: Callable[[str], _Number], kind: str,
            default: _Number) -> _Number:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(f"{name}={raw!r} is not {kind}") from None


def _switch(name: str, default: bool) -> bool:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return _SWITCH[raw.lower()]
    except KeyError:
        raise ConfigError(
            f"{name}={raw!r} is not an on/off value "
            f"(use 1/0, true/false, on/off or yes/no)") from None


def scale() -> float:
    """``REPRO_SCALE``: workload size multiplier (default 0.25; 1.0 runs
    ~50-150k instructions per workload)."""
    return _number("REPRO_SCALE", float, "a number", 0.25)


def seed() -> int:
    """``REPRO_SEED``: workload generation seed (default 1)."""
    return _number("REPRO_SEED", int, "an integer", 1)


def jobs() -> int:
    """``REPRO_JOBS``: default worker count (default 1, at least 1)."""
    return max(1, _number("REPRO_JOBS", int, "an integer", 1))


def cache_root() -> pathlib.Path:
    """``REPRO_CACHE_DIR``: the result-cache root, which also holds the
    run ledger (default ``~/.cache/repro-sim``)."""
    raw = os.environ.get("REPRO_CACHE_DIR")
    if raw:
        return pathlib.Path(raw)
    return pathlib.Path.home() / ".cache" / "repro-sim"


def cache_enabled() -> bool:
    """``REPRO_CACHE``: off disables the default result cache, and with
    it the default run ledger."""
    return _switch("REPRO_CACHE", True)
