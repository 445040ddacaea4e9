"""Tests for the analytic error budget and the omega_bar sweep."""

import math

import numpy as np
import pytest

from blockadesim.budget import (
    SWEEP_MAX_POINTS,
    TAU_BY_TEMPERATURE,
    argmin_total,
    avg_dwell,
    blockade_error,
    control_dwell,
    decay_error,
    dwell_table,
    error_budget,
    gate_time,
    sweep,
    sweep_grid,
    total_error,
    two_photon_error,
)
from blockadesim.model import PhysicalParams, vdw_shift
from blockadesim.schedule import DriveParams

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)

REF_PARAMS = PhysicalParams(c6_over_2pi=-633.0, spacing=6.0, lifetime=1590.0, n_atoms=3)
V = REF_PARAMS.blockade


def ref_drive(omega_bar_mhz, ratio=2.0):
    return DriveParams.from_ratio(TWO_PI * 10.0, TWO_PI * omega_bar_mhz, ratio)


def random_drive(rng):
    return DriveParams(
        omega0=TWO_PI * rng.uniform(1.0, 30.0),
        omega1=TWO_PI * rng.uniform(0.05, 2.0),
        omega2=TWO_PI * rng.uniform(0.05, 2.0),
        omega3=TWO_PI * rng.uniform(0.05, 2.0),
    )


# ---------------------------------------------------------------------------
# gate time
# ---------------------------------------------------------------------------

def test_gate_time_at_054():
    # 0.1 + 2/0.54 + 1/0.54 us by hand
    assert gate_time(ref_drive(0.54)) == pytest.approx(
        0.1 + 3.0 / 0.54, rel=1e-12
    )
    assert gate_time(ref_drive(0.54)) == pytest.approx(5.656, rel=1e-3)


def test_gate_time_at_092():
    assert gate_time(ref_drive(0.92)) == pytest.approx(0.1 + 3.0 / 0.92, rel=1e-12)
    assert gate_time(ref_drive(0.92)) == pytest.approx(3.361, rel=1e-3)


def test_gate_time_fast_drive_limit():
    drive = DriveParams(TWO_PI * 10.0, 1e9, 1e9, 1e9 / SQRT2)
    assert gate_time(drive) == pytest.approx(0.1, rel=1e-6)


# ---------------------------------------------------------------------------
# dwell table
# ---------------------------------------------------------------------------

def test_dwell_table_control_rows():
    drive = ref_drive(0.54)
    table = dwell_table(drive)
    t_x = control_dwell(drive)
    assert table["000"] == pytest.approx(2.0 * t_x, rel=1e-12)
    assert table["001"] == pytest.approx(2.0 * t_x, rel=1e-12)
    for label in ("010", "011", "100", "101"):
        assert table[label] == pytest.approx(t_x, rel=1e-12)


def test_dwell_table_gate_row_ratio_two():
    drive = ref_drive(0.54)
    expected = (math.pi / drive.omega_bar) * (29.0 / 125.0) + math.pi / (
        2.0 * SQRT2 * drive.omega3
    )
    assert dwell_table(drive)["110"] == pytest.approx(expected, rel=1e-12)


def test_dwell_table_gate_rows_sum_identity():
    # the omega-bracket terms of the two gate rows always add to 2 pi / wbar
    rng = np.random.default_rng(1)
    for _ in range(50):
        drive = random_drive(rng)
        table = dwell_table(drive)
        tail = math.pi / (2.0 * SQRT2 * drive.omega3)
        bracket_sum = table["110"] + table["111"] - 2.0 * tail
        assert bracket_sum == pytest.approx(TWO_PI / drive.omega_bar, rel=1e-12)


def test_avg_dwell_equals_table_mean():
    rng = np.random.default_rng(2)
    for _ in range(100):
        drive = random_drive(rng)
        mean = np.mean(list(dwell_table(drive).values()))
        assert abs(avg_dwell(drive) - mean) <= 1e-12 * max(1.0, mean)


def test_avg_dwell_reference_value():
    # 0.05 + 3.1875/0.54 us by hand
    assert avg_dwell(ref_drive(0.54)) == pytest.approx(
        0.05 + 3.1875 / 0.54, rel=1e-12
    )


def test_avg_dwell_scales_inversely_with_drive():
    drive = ref_drive(0.54)
    doubled = DriveParams(
        2 * drive.omega0, 2 * drive.omega1, 2 * drive.omega2, 2 * drive.omega3
    )
    assert avg_dwell(doubled) == pytest.approx(avg_dwell(drive) / 2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# error terms
# ---------------------------------------------------------------------------

def test_decay_error_values():
    assert decay_error(ref_drive(0.54), 1590.0) == pytest.approx(
        (0.05 + 3.1875 / 0.54) / 1590.0, rel=1e-12
    )
    assert decay_error(ref_drive(0.92), 313.0) == pytest.approx(
        (0.05 + 3.1875 / 0.92) / 313.0, rel=1e-12
    )
    assert decay_error(ref_drive(0.54), math.inf) == 0.0
    with pytest.raises(ValueError):
        decay_error(ref_drive(0.54), 0.0)


def test_blockade_error_value():
    omega0 = TWO_PI * 10.0
    expected = 2.0 * (V / 64.0) ** 2 / omega0**2
    assert blockade_error(V, omega0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(8.988e-4, rel=1e-3)


def test_blockade_error_limits():
    assert blockade_error(V, 1e10) < 1e-18
    doubled_spacing = vdw_shift(-633.0, 12.0)
    assert blockade_error(doubled_spacing, TWO_PI * 10.0) == pytest.approx(
        blockade_error(V, TWO_PI * 10.0) / 4096.0, rel=1e-12
    )


def _two_photon_by_hand(drive, v):
    t = TWO_PI / drive.omega_bar
    t_swap = SQRT2 * math.pi / drive.omega3
    strong = (
        math.sin(drive.omega1 * drive.omega2 * t / (4.0 * v)) ** 2
        + math.sin(drive.omega3**2 * t_swap / (8.0 * v)) ** 2
    )
    weak = (
        math.sin(drive.omega1 * drive.omega2 * t / (2.0 * v)) ** 2
        + math.sin(drive.omega3**2 * t_swap / (4.0 * v)) ** 2
    )
    return strong / 4.0 + weak / 2.0


@pytest.mark.parametrize("omega_bar_mhz,rough", [(0.54, 1.96e-3), (0.92, 5.67e-3)])
def test_two_photon_error_values(omega_bar_mhz, rough):
    drive = ref_drive(omega_bar_mhz)
    value = two_photon_error(drive, V)
    assert value == pytest.approx(_two_photon_by_hand(drive, V), rel=1e-12)
    assert value == pytest.approx(rough, rel=0.01)


def test_two_photon_error_vanishes_at_large_blockade():
    drive = ref_drive(0.54)
    assert two_photon_error(drive, V * 1e4) < 1e-10
    with pytest.raises(ValueError):
        two_photon_error(drive, 0.0)


@pytest.mark.parametrize("v", [1e-309, -5e-324])
def test_two_photon_error_names_a_non_finite_phase(v):
    # omega1 omega2 t / v overflows to inf, where math.sin has no value
    with pytest.raises(ValueError, match="two-photon phase is not finite"):
        two_photon_error(ref_drive(0.54), v)


# ---------------------------------------------------------------------------
# totals and sweep
# ---------------------------------------------------------------------------

def test_total_error_reference_minima():
    cold = total_error(ref_drive(0.54), REF_PARAMS, "4.2K")
    assert cold.total == pytest.approx(6.7e-3, rel=0.1)
    warm = total_error(ref_drive(0.92), REF_PARAMS, "300K")
    assert warm.total == pytest.approx(18e-3, rel=0.1)


def test_total_error_is_component_sum():
    budget = total_error(ref_drive(0.7), REF_PARAMS, "4.2K")
    assert budget.total == budget.decay + budget.blockade + budget.two_photon
    for term in (budget.decay, budget.blockade, budget.two_photon):
        assert term >= 0.0


def test_total_error_rejects_unknown_temperature():
    with pytest.raises(ValueError):
        total_error(ref_drive(0.54), REF_PARAMS, "77K")


def test_error_budget_carries_times_and_phase():
    drive = ref_drive(0.54)
    budget = error_budget(drive, REF_PARAMS, 1590.0)
    assert budget.gate_time_us == pytest.approx(gate_time(drive), rel=1e-12)
    assert budget.control_dwell_us == pytest.approx(control_dwell(drive), rel=1e-12)
    assert budget.mean_rydberg_time_us == pytest.approx(avg_dwell(drive), rel=1e-12)
    assert budget.residue_phase_rad == pytest.approx(7.3999, rel=1e-4)


def test_component_monotonicity_over_sweep():
    points = sweep(REF_PARAMS)
    decay = [p.budget_4k.decay for p in points]
    two_photon = [p.budget_4k.two_photon for p in points]
    gate_times = [p.budget_4k.gate_time_us for p in points]
    assert all(a > b for a, b in zip(decay, decay[1:]))
    assert all(a < b for a, b in zip(two_photon, two_photon[1:]))
    assert all(a > b for a, b in zip(gate_times, gate_times[1:]))


def test_sweep_minima_locations():
    points = sweep(REF_PARAMS)
    assert argmin_total(points, "4.2K").omega_bar_mhz == pytest.approx(0.54, abs=0.021)
    assert argmin_total(points, "300K").omega_bar_mhz == pytest.approx(0.92, abs=0.021)
    with pytest.raises(ValueError):
        argmin_total(points, "77K")
    with pytest.raises(ValueError):
        argmin_total([], "4.2K")


def test_sweep_grid_validation():
    assert sweep_grid(0.02, 0.1, 0.02) == pytest.approx([0.02, 0.04, 0.06, 0.08, 0.1])
    with pytest.raises(ValueError):
        sweep_grid(0.0, 1.0, 0.02)
    with pytest.raises(ValueError):
        sweep_grid(0.02, 2.5, 0.02)
    with pytest.raises(ValueError):
        sweep_grid(0.02, 1.0, 0.0)


def test_sweep_grid_point_limit():
    # at the limit and one point over it, so a missing check builds no huge grid
    assert len(sweep_grid(1.0, 1.99999, 1e-5)) == SWEEP_MAX_POINTS == 100_000
    with pytest.raises(ValueError, match="100001 grid points"):
        sweep_grid(1.0, 2.0, 1e-5)
    # the count is what range() would build, written out in full
    with pytest.raises(ValueError, match="166667 grid points"):
        sweep_grid(1.0, 2.0, 6e-6)
    with pytest.raises(ValueError, match="22800001 grid points"):
        sweep_grid(0.02, 2.3, 1e-7)
    # the point count overflows a float here
    with pytest.raises(ValueError, match="inf grid points"):
        sweep_grid(0.02, 2.3, 5e-324)


def test_tau_table():
    assert TAU_BY_TEMPERATURE == {"4.2K": 1590.0, "300K": 313.0}
