"""Exception types shared across the package."""

from __future__ import annotations

import math


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


def require_finite(owner: str, **values: float | None) -> None:
    """Raise ConfigError naming the first value that is NaN or infinite; None is unset."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            label = f"{owner}.{name}" if owner else name
            raise ConfigError(f"{label} must be finite, got {value}")
