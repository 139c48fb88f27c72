"""Exception types shared across the package."""

from __future__ import annotations


class OffloadError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSnapshotError(OffloadError):
    """A device or network reading violates its own invariants."""


class InvalidBoundsError(OffloadError):
    """RSSI normalization bounds are degenerate (floor >= ceiling)."""


class InvalidWeightsError(OffloadError):
    """Utility weights fall outside [0, 1] or do not sum to one."""


class NoCandidatesError(OffloadError):
    """A selection was requested over an empty candidate set."""


class ConfigError(OffloadError):
    """A scenario or model parameter failed validation."""


class TraceFormatError(OffloadError):
    """A trace file is malformed; message carries file and line."""
