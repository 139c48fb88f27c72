"""Radio link and message transport model.

Signal strength is a log-distance path loss (``path_loss_dbm``) plus
optional seeded shadowing noise (``rssi_at``). The two are separate
calls so that a caller can compute the path loss of a link whose ends
never move once and reuse it. Throughput is a step function of RSSI in
the shape of discrete wireless rate tiers. Message delivery time is
base latency plus serialization at that throughput; a link below the
usable RSSI floor drops the message instead. ``deliver`` takes a
message's size, not a message object.

Shadowing is a pure function of (seed, endpoints, sample time), not a
stateful RNG stream, so evaluating the same link twice at the same
instant always yields the same value regardless of call order. It
follows ``LinkModel.seed``, not a run's seed. ``rssi_at`` given a draw
memo (a dict its caller owns) makes each such draw once.

Every shadowing and noise draw goes through ``keyed_draw``, a
counter-based draw: one 16-byte BLAKE2b digest of the key string gives
two 53-bit uniforms, and a Gaussian is built from them by Box-Muller.
No generator state exists, so a draw is a pure function of its key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from hashlib import blake2b
from struct import Struct
from typing import NamedTuple, Optional

from .errors import ConfigError, require_finite

RSSI_FLOOR_DBM = -120.0
RSSI_CEILING_DBM = -20.0

# (minimum RSSI dBm, throughput Mbps), strongest tier first. Links at
# or above the scenario's usable floor but below every tier fall back
# to a 1 Mbps trickle; below the floor they carry nothing.
DEFAULT_RATE_TIERS: tuple[tuple[float, float], ...] = (
    (-50.0, 54.0),
    (-60.0, 36.0),
    (-70.0, 18.0),
    (-80.0, 6.0),
)


@dataclass(frozen=True)
class LinkModel:
    """Log-distance path-loss channel.

    ``ref_power_dbm`` is the received power at ``ref_distance`` meters;
    every decade of distance beyond that costs ``10 * path_loss_exp``
    dB. ``shadow_sigma`` is the standard deviation of the zero-mean
    Gaussian shadowing term in dB; zero disables it.
    """

    ref_power_dbm: float = -40.0
    ref_distance: float = 1.0
    path_loss_exp: float = 2.2
    shadow_sigma: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        require_finite("link", ref_power_dbm=self.ref_power_dbm, ref_distance=self.ref_distance,
                       path_loss_exp=self.path_loss_exp, shadow_sigma=self.shadow_sigma)
        if not (1.5 <= self.path_loss_exp <= 6.0):
            raise ConfigError(
                f"path_loss_exp must be in [1.5, 6], got {self.path_loss_exp}"
            )
        if self.ref_distance <= 0.0:
            raise ConfigError(f"ref_distance must be positive, got {self.ref_distance}")
        if self.shadow_sigma < 0.0:
            raise ConfigError(f"shadow_sigma must be >= 0, got {self.shadow_sigma}")


class Delivery(NamedTuple):
    """Outcome of handing a message to the channel.

    ``arrival_at`` is None when the link was below the usable floor and
    the message was dropped.
    """

    sent_at: float
    throughput_mbps: float
    arrival_at: Optional[float]

    @property
    def dropped(self) -> bool:
        return self.arrival_at is None


# A 16-byte digest read as two little-endian 64-bit words; the top 53
# bits of each, scaled by 2**-53, are a uniform in [0, 1), as
# Random.random's are. The byte order is fixed, not the platform's.
_two_words = Struct("<QQ").unpack
_UNIT = 2.0 ** -53


def keyed_draw(key: str, scale: float, gaussian: bool) -> float:
    """A zero-mean Gaussian of deviation ``scale``, or a uniform in [-scale, scale).

    Both come from ``blake2b(key, digest_size=16)`` split into uniforms
    u1 and u2: the Gaussian is the first Box-Muller value
    ``Random.gauss`` would build from them, ``cos(u1*tau) *
    sqrt(-2*log(1-u2)) * scale``, and the uniform is ``-scale + 2*scale*u1``.
    Equal keys give equal bits whatever the call order.
    """
    hi, lo = _two_words(blake2b(key.encode(), digest_size=16).digest())
    u1 = (hi >> 11) * _UNIT
    if gaussian:
        u2 = (lo >> 11) * _UNIT
        return math.cos(u1 * math.tau) * math.sqrt(-2.0 * math.log(1.0 - u2)) * scale
    return -scale + 2.0 * scale * u1


def _shadowing_db(link: LinkModel, src: str, dst: str, t: float,
                  draws: Optional[dict] = None) -> float:
    if link.shadow_sigma == 0.0:
        return 0.0
    # A key holds every input of the seed string, so a hit equals a fresh draw.
    # Only float t is memoized (1 == 1.0, but their reprs differ); t is never -0.0.
    stream = None if draws is None or type(t) is not float else draws.setdefault(
        ("shadow", link.seed, link.shadow_sigma, src, dst), {})
    if stream is not None and t in stream:
        return stream[t]
    value = keyed_draw(f"{link.seed}/shadow/{src}/{dst}/{t!r}", link.shadow_sigma, True)
    if stream is not None:
        stream[t] = value
    return value


def path_loss_dbm(link: LinkModel, x0: float, y0: float, x1: float, y1: float) -> float:
    """Mean received power in dBm between two points, before shadowing.

    Distances inside the reference distance clamp to the reference.
    """
    d = math.hypot(x0 - x1, y0 - y1)
    d = max(d, link.ref_distance)
    return link.ref_power_dbm - 10.0 * link.path_loss_exp * math.log10(d / link.ref_distance)


def rssi_at(link: LinkModel, path_loss: float, src: str, dst: str, t: float,
            draws: Optional[dict] = None) -> float:
    """Received signal strength in dBm on the link src -> dst at time t.

    ``path_loss`` is the link's ``path_loss_dbm``; the shadowing drawn
    for (src, dst, t) is added (memoized in ``draws``) and the result
    clamps into the physically plausible [-120, -20] dBm window.
    """
    rssi = path_loss + _shadowing_db(link, src, dst, t, draws)
    return max(RSSI_FLOOR_DBM, min(RSSI_CEILING_DBM, rssi))


def throughput_of(rssi: float, min_rssi: float = -85.0) -> float:
    """Map RSSI to link throughput in Mbps via the step tier table."""
    for tier_rssi, rate in DEFAULT_RATE_TIERS:
        if rssi >= tier_rssi:
            return rate
    if rssi >= min_rssi:
        return 1.0
    return 0.0


def deliver(
    size_bytes: int,
    rssi: float,
    now: float,
    base_latency: float = 0.005,
    min_rssi: float = -85.0,
) -> Delivery:
    """Compute when a message of size_bytes sent now arrives, or drop it.

    Arrival is ``now + base_latency + bits / throughput``; a zero-rate
    link yields a drop rather than an infinite delay.
    """
    rate = throughput_of(rssi, min_rssi=min_rssi)
    if rate <= 0.0:
        return Delivery(now, 0.0, None)
    tx_time = (size_bytes * 8.0) / (rate * 1e6)
    return Delivery(now, rate, now + base_latency + tx_time)
