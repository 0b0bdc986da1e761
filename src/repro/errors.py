"""Exception hierarchy for the repro package.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch a single type at API boundaries while still being able
to distinguish configuration mistakes from simulation failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """A machine or experiment configuration is invalid."""


class AssemblyError(ReproError):
    """A program could not be assembled (bad label, bad operand, ...)."""


class EmulationError(ReproError):
    """The functional emulator hit an illegal state.

    Examples: a jump outside the text segment, executing past the end of
    the program, or exceeding the watchdog instruction limit.
    """


class SimulationError(ReproError):
    """The cycle-level simulator violated one of its own invariants."""


class WorkloadError(ReproError):
    """A workload profile or generated program is malformed."""


class TelemetryError(ReproError):
    """A telemetry operation failed (bad ledger ref, corrupt entry, ...)."""


class CorpusError(ReproError):
    """A trace corpus is malformed or inconsistent.

    Examples: a missing or unparsable manifest, a shard whose on-disk
    checksum no longer matches its manifest entry, a duplicate shard
    name, or an undecodable imported trace.
    """


class DivergenceError(ReproError):
    """A differential replay found our model and the reference model
    disagreeing (see :mod:`repro.corpus.diffcheck`); the message names
    the shard and the first diverging event."""

