"""Tests for the radio link and transport model."""

from __future__ import annotations

import math
import random
from statistics import NormalDist

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from offloadsim.config import ExecModel
from offloadsim.errors import ConfigError
from offloadsim.netsim import (
    LinkModel,
    deliver,
    keyed_draw,
    path_loss_dbm,
    rssi_at,
    throughput_of,
)

TOL = 1e-12


def link(**kw):
    defaults = dict(ref_power_dbm=-40.0, ref_distance=1.0, path_loss_exp=2.0,
                    shadow_sigma=0.0, seed=7)
    defaults.update(kw)
    return LinkModel(**defaults)


def rssi(lk, d, src="r1", t=0.0):
    """RSSI from src at the origin to e1 at distance d along x, at time t."""
    return rssi_at(lk, path_loss_dbm(lk, 0.0, 0.0, d, 0.0), src, "e1", t)


# ------------------------------------------------------------------- rssi

def test_rssi_one_decade_of_distance_costs_twenty_db_at_exp_two():
    # -40 - 10 * 2 * log10(10 / 1)
    got = rssi(link(), 10.0)
    assert got == pytest.approx(-60.0, abs=TOL)


def test_rssi_at_reference_distance_is_reference_power():
    got = rssi(link(), 1.0)
    assert got == pytest.approx(-40.0, abs=TOL)


def test_rssi_inside_reference_distance_clamps_to_reference():
    at_ref = rssi(link(), 1.0)
    closer = rssi(link(), 0.01)
    assert closer == at_ref


def test_rssi_clamps_to_plausible_window():
    far = rssi(link(), 1e6)
    assert far == -120.0


def test_rssi_with_shadowing_is_repeatable():
    shadowed = link(shadow_sigma=4.0)
    a = rssi(shadowed, 25.0, t=3.5)
    b = rssi(shadowed, 25.0, t=3.5)
    assert a == b


def test_rssi_shadowing_varies_over_time_and_links():
    shadowed = link(shadow_sigma=4.0)
    base = rssi(shadowed, 25.0, t=0.0)
    later = rssi(shadowed, 25.0, t=1.0)
    other = rssi(shadowed, 25.0, "r2", t=0.0)
    assert base != later
    assert base != other


# Draw keys end in a time's repr, as the shadowing and noise keys do.
draw_keys = st.one_of(
    st.text(),
    st.builds(lambda head, t: f"{head}/{t!r}", st.text(max_size=12),
              st.floats(min_value=0.0, max_value=1e6)),
    st.sampled_from(["7/shadow/r1/e2/1e-05", "1/noise/e1/cpu/0.30000000000000004",
                     "0/shadow/r10/e3/3387.649999998014"]),
)
scales = st.floats(min_value=0.0, max_value=1e3)


@given(draws=st.lists(st.tuples(draw_keys, scales, st.booleans()), min_size=1, max_size=8),
       order=st.randoms(use_true_random=False))
@example(draws=[("k", 2.0, True), ("k", 2.0, True), ("k", 2.0, False), ("j", 0.5, True)],
         order=random.Random(0))
@example(draws=[("x", 0.0, True), ("x", 0.0, False)], order=random.Random(0))  # signed zeros
def test_equal_keys_give_equal_bits_whatever_the_call_order(draws, order):
    # Interleaved gauss and uniform draws, repeated keys included: any
    # state left from one call would show when the calls are reordered.
    first = [repr(keyed_draw(*draw)) for draw in draws]
    shuffled = list(range(len(draws)))
    order.shuffle(shuffled)
    again = {i: repr(keyed_draw(*draws[i])) for i in shuffled}
    assert [again[i] for i in range(len(draws))] == first


def _distribution_keys() -> list[str]:
    """10^5 distinct keys in the shape of the shadowing keys."""
    return [f"{i % 5}/shadow/r{i % 11}/e{i % 7}/{i * 0.1!r}" for i in range(10**5)]


def _mean_and_variance(values):
    mean = math.fsum(values) / len(values)
    return mean, math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)


def test_keyed_gaussian_draws_match_the_normal_distribution():
    keys, sigma = _distribution_keys(), 2.0
    n = len(keys)
    values = [keyed_draw(key, sigma, True) for key in keys]
    mean, variance = _mean_and_variance(values)
    # Bounds are five standard errors of each estimate over n draws.
    assert abs(mean) < 5 * sigma / math.sqrt(n)
    assert abs(variance / sigma**2 - 1.0) < 5 * math.sqrt(2.0 / n)
    normal = NormalDist(0.0, sigma)
    for k in (2, 3):
        expected = 2.0 * normal.cdf(-k * sigma)
        observed = sum(abs(v) > k * sigma for v in values) / n
        assert abs(observed - expected) < 5 * math.sqrt(expected * (1.0 - expected) / n), k


def test_keyed_uniform_draws_fill_the_half_open_interval():
    keys, scale = _distribution_keys(), 3.0
    n = len(keys)
    values = [keyed_draw(key, scale, False) for key in keys]
    assert all(-scale <= v < scale for v in values)
    mean, variance = _mean_and_variance(values)
    # A uniform on [-s, s) has variance s^2 / 3 and fourth moment s^4 / 5.
    var, fourth = scale**2 / 3.0, scale**4 / 5.0
    assert abs(mean) < 5 * math.sqrt(var / n)
    assert abs(variance - var) < 5 * math.sqrt((fourth - var**2) / n)


def test_link_model_validation():
    with pytest.raises(ConfigError):
        link(path_loss_exp=1.0)
    with pytest.raises(ConfigError):
        link(ref_distance=0.0)
    with pytest.raises(ConfigError):
        link(shadow_sigma=-1.0)


@given(d1=st.floats(min_value=0.1, max_value=1e4), d2=st.floats(min_value=0.1, max_value=1e4))
def test_rssi_monotone_nonincreasing_in_distance(d1, d2):
    d1, d2 = sorted((d1, d2))
    near = rssi(link(), d1)
    far = rssi(link(), d2)
    assert near >= far


# ------------------------------------------------------------- throughput

@pytest.mark.parametrize(
    "rssi,expected",
    [
        (-45.0, 54.0),
        (-50.0, 54.0),
        (-55.0, 36.0),
        (-60.0, 36.0),
        (-65.0, 18.0),
        (-75.0, 6.0),
        (-80.0, 6.0),
        (-82.0, 1.0),
        (-85.0, 1.0),
        (-95.0, 0.0),
    ],
)
def test_throughput_tiers(rssi, expected):
    assert throughput_of(rssi) == expected


@given(r1=st.floats(min_value=-120.0, max_value=-20.0), r2=st.floats(min_value=-120.0, max_value=-20.0))
def test_throughput_monotone_in_rssi(r1, r2):
    r1, r2 = sorted((r1, r2))
    assert throughput_of(r1) <= throughput_of(r2)


# --------------------------------------------------------------- delivery

def test_delivery_time_is_latency_plus_serialization():
    # 1 MB at 6 Mbps after a 5 ms base latency: 0.005 + 8e6 / 6e6 seconds
    out = deliver(size_bytes=1_000_000, rssi=-75.0, now=0.0, base_latency=0.005)
    assert out.throughput_mbps == 6.0
    assert out.arrival_at == pytest.approx(0.005 + 8e6 / 6e6, abs=TOL)


def test_delivery_below_floor_drops():
    out = deliver(size_bytes=1_000, rssi=-95.0, now=2.0)
    assert out.dropped
    assert out.arrival_at is None
    assert out.throughput_mbps == 0.0


def test_message_size_must_be_positive():
    # deliver trusts its size; the config's exec model is where it is checked.
    with pytest.raises(ConfigError, match="message_bytes"):
        ExecModel(message_bytes=0)
    with pytest.raises(ConfigError, match="message_bytes"):
        ExecModel(message_bytes=-1)


@given(
    size=st.integers(min_value=1, max_value=10_000_000),
    rssi=st.floats(min_value=-84.9, max_value=-20.0),
    now=st.floats(min_value=0.0, max_value=1e6),
)
def test_delivery_respects_causality(size, rssi, now):
    out = deliver(size_bytes=size, rssi=rssi, now=now, base_latency=0.005)
    assert not out.dropped
    assert out.arrival_at >= now + 0.005
