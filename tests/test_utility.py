"""Unit and property tests for the per-edge utility scoring."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from offloadsim.errors import (
    InvalidBoundsError,
    InvalidSnapshotError,
    InvalidWeightsError,
)
from offloadsim.utility import (
    DeviceSnapshot,
    NetworkBounds,
    NetworkSnapshot,
    TaskSpec,
    Weights,
    cpu_utility,
    memory_utility,
    rssi_utility,
    total_utility,
)

TOL = 1e-12


def snap(cpu_max=100.0, cpu_used=0.0, mem_max=4096.0, mem_used=0.0):
    return DeviceSnapshot("e1", 0.0, cpu_max, cpu_used, mem_max, mem_used)


def task(footprint=0.0):
    return TaskSpec("merge", mem_footprint=footprint)


# ---------------------------------------------------------------- cpu axis

def test_cpu_utility_idle_device_scores_one():
    assert cpu_utility(snap(cpu_used=0.0)) == 1.0


def test_cpu_utility_saturated_device_scores_zero():
    assert cpu_utility(snap(cpu_used=100.0)) == 0.0


def test_cpu_utility_partial_load():
    # (100 - 40) / 100
    assert cpu_utility(snap(cpu_used=40.0)) == pytest.approx(0.6, abs=TOL)


def test_cpu_utility_rejects_nonpositive_budget():
    with pytest.raises(InvalidSnapshotError):
        snap(cpu_max=0.0)


# ------------------------------------------------------------- memory axis

def test_memory_utility_empty_device_no_footprint():
    assert memory_utility(snap(), task(0.0)) == 1.0


def test_memory_utility_half_left_after_footprint():
    # (4096 - 512 - 1536) / 4096
    s = snap(mem_used=1536.0)
    assert memory_utility(s, task(512.0)) == pytest.approx(0.5, abs=TOL)


def test_memory_utility_overcommitted_clamps_to_zero():
    # raw value (4096 - 1024 - 3584) / 4096 = -0.125 clamps to 0
    s = snap(mem_used=3584.0)
    assert memory_utility(s, task(1024.0)) == 0.0


def test_memory_utility_rejects_nonpositive_capacity():
    with pytest.raises(InvalidSnapshotError):
        snap(mem_max=0.0)


# --------------------------------------------------------------- link axis

BOUNDS = NetworkBounds(min_rssi=-85.0, max_rssi=-30.0)


def reading(rssi):
    return NetworkSnapshot("r1", "e1", 0.0, rssi)


def test_rssi_utility_at_floor_scores_zero():
    assert rssi_utility(reading(-85.0), BOUNDS) == 0.0


def test_rssi_utility_at_ceiling_scores_one():
    assert rssi_utility(reading(-30.0), BOUNDS) == 1.0


def test_rssi_utility_midrange():
    # (-60 + 85) / (-30 + 85) = 25 / 55
    assert rssi_utility(reading(-60.0), BOUNDS) == pytest.approx(25.0 / 55.0, abs=TOL)


def test_rssi_utility_clamps_outside_bounds():
    assert rssi_utility(reading(-100.0), BOUNDS) == 0.0
    assert rssi_utility(reading(-10.0), BOUNDS) == 1.0


def test_degenerate_bounds_rejected():
    with pytest.raises(InvalidBoundsError):
        NetworkBounds(min_rssi=-30.0, max_rssi=-30.0)
    with pytest.raises(InvalidBoundsError):
        NetworkBounds(min_rssi=-20.0, max_rssi=-30.0)


# ------------------------------------------------------------ weighted sum

def test_total_utility_single_axis_weight_passes_through():
    assert total_utility(0.7, 0.2, 0.9, Weights(1.0, 0.0, 0.0)) == pytest.approx(0.7, abs=TOL)


def test_total_utility_mixed_weights():
    # 0.3*0.6 + 0.3*0.5 + 0.4*0.5
    got = total_utility(0.6, 0.5, 0.5, Weights(0.3, 0.3, 0.4))
    assert got == pytest.approx(0.53, abs=TOL)


@pytest.mark.parametrize(
    "w",
    [(-0.1, 0.6, 0.5), (1.1, -0.05, -0.05), (0.2, 0.2, 0.2), (0.4, 0.4, 0.4)],
)
def test_weight_simplex_violations_rejected(w):
    with pytest.raises(InvalidWeightsError):
        Weights(*w)


def test_weight_sum_tolerance_accepts_tiny_error():
    Weights(0.3, 0.3, 0.4 + 5e-10)  # within the 1e-9 simplex tolerance


# ------------------------------------------------------------- properties

pct = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
mb = st.floats(min_value=1.0, max_value=65536.0, allow_nan=False)


@st.composite
def weight_vectors(draw):
    # Sample two cut points so the three parts always sum to one exactly
    # up to float error absorbed by the simplex tolerance.
    a = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    b = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    lo, hi = sorted((a, b))
    return Weights(lo, hi - lo, 1.0 - hi)


@given(used=pct)
def test_cpu_utility_bounded(used):
    assert 0.0 <= cpu_utility(snap(cpu_used=used)) <= 1.0


@given(lo=pct, hi=pct)
def test_cpu_utility_monotone_in_load(lo, hi):
    lo, hi = sorted((lo, hi))
    assert cpu_utility(snap(cpu_used=lo)) >= cpu_utility(snap(cpu_used=hi))


@given(mem_used=mb, footprint=mb)
def test_memory_utility_bounded(mem_used, footprint):
    s = snap(mem_max=65536.0, mem_used=mem_used)
    assert 0.0 <= memory_utility(s, task(footprint)) <= 1.0


@given(rssi=st.floats(min_value=-120.0, max_value=0.0, allow_nan=False))
def test_rssi_utility_bounded(rssi):
    assert 0.0 <= rssi_utility(reading(rssi), BOUNDS) <= 1.0


@given(lo=st.floats(min_value=-120.0, max_value=0.0), hi=st.floats(min_value=-120.0, max_value=0.0))
def test_rssi_utility_monotone_in_signal(lo, hi):
    lo, hi = sorted((lo, hi))
    assert rssi_utility(reading(lo), BOUNDS) <= rssi_utility(reading(hi), BOUNDS)


@given(c=unit, m=unit, n=unit, w=weight_vectors())
def test_total_utility_bounded(c, m, n, w):
    assert -TOL <= total_utility(c, m, n, w) <= 1.0 + TOL


@given(c=unit, m=unit, n=unit, w=weight_vectors(), a=unit)
def test_total_utility_scales_linearly(c, m, n, w, a):
    scaled = total_utility(a * c, a * m, a * n, w)
    assert scaled == pytest.approx(a * total_utility(c, m, n, w), abs=1e-12)


@given(c=unit, m=unit, n=unit)
def test_total_utility_degenerate_weights_select_one_axis(c, m, n):
    assert total_utility(c, m, n, Weights(1.0, 0.0, 0.0)) == pytest.approx(c, abs=TOL)
    assert total_utility(c, m, n, Weights(0.0, 1.0, 0.0)) == pytest.approx(m, abs=TOL)
    assert total_utility(c, m, n, Weights(0.0, 0.0, 1.0)) == pytest.approx(n, abs=TOL)
