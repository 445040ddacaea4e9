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
    dwell_table,
    error_budget,
    sweep,
    sweep_grid,
)
from blockadesim.model import PhysicalParams, vdw_shift
from blockadesim.schedule import (
    MAX_SEGMENT_PHASE,
    DriveParams,
    cnot_schedule,
    deutsch_schedule,
    residue_phase,
    segment_durations,
    toffoli_schedule,
)

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)

REF_PARAMS = PhysicalParams(c6_over_2pi=-633.0, spacing=6.0, lifetime=1590.0, n_atoms=3)
REF_PARAMS_2 = PhysicalParams(c6_over_2pi=-633.0, spacing=6.0, lifetime=1590.0, n_atoms=2)
PARAMS = {"deutsch": REF_PARAMS, "toffoli": REF_PARAMS, "cnot": REF_PARAMS_2}
BUILDERS = {"deutsch": deutsch_schedule, "toffoli": toffoli_schedule, "cnot": cnot_schedule}
V = REF_PARAMS.blockade


def ref_drive(omega_bar_mhz, ratio=2.0):
    return DriveParams.from_ratio(TWO_PI * 10.0, TWO_PI * omega_bar_mhz, ratio)


def deutsch_budget(drive, temperature="4.2K", params=REF_PARAMS):
    return error_budget(drive, params, TAU_BY_TEMPERATURE[temperature])


def gate_time(drive, gate="deutsch"):
    return error_budget(drive, PARAMS[gate], 1590.0, gate).gate_time_us


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
    for gate in ("deutsch", "toffoli", "cnot"):
        assert sum(segment_durations(gate, drive)) == pytest.approx(0.1, rel=1e-6)


@pytest.mark.parametrize("gate", ["deutsch", "toffoli", "cnot"])
def test_gate_time_is_the_schedule_duration(gate):
    # 0.1 + 1/0.54 us by hand for the three-pulse gates
    drive = ref_drive(0.54)
    assert gate_time(drive, gate) == BUILDERS[gate](drive).total_duration
    if gate != "deutsch":
        assert gate_time(drive, gate) == pytest.approx(0.1 + 1.0 / 0.54, rel=1e-12)


# ---------------------------------------------------------------------------
# dwell table
# ---------------------------------------------------------------------------

def test_dwell_table_control_rows():
    drive = ref_drive(0.54)
    table = dwell_table(drive)
    t_x = deutsch_budget(drive).control_dwell_us
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
    assert deutsch_budget(ref_drive(0.54)).decay == pytest.approx(
        (0.05 + 3.1875 / 0.54) / 1590.0, rel=1e-12
    )
    assert deutsch_budget(ref_drive(0.92), "300K").decay == pytest.approx(
        (0.05 + 3.1875 / 0.92) / 313.0, rel=1e-12
    )
    assert error_budget(ref_drive(0.54), REF_PARAMS, math.inf).decay == 0.0
    with pytest.raises(ValueError):
        error_budget(ref_drive(0.54), REF_PARAMS, 0.0)


def test_blockade_error_value():
    omega0 = TWO_PI * 10.0
    expected = 2.0 * (V / 64.0) ** 2 / omega0**2
    residue = REF_PARAMS.control_residue
    assert blockade_error(residue, omega0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(8.988e-4, rel=1e-3)
    assert blockade_error(REF_PARAMS_2.control_residue, omega0) == 0.0


def test_blockade_error_limits():
    residue = REF_PARAMS.control_residue
    assert blockade_error(residue, 1e10) < 1e-18
    doubled_spacing = vdw_shift(-633.0, 24.0)  # controls at 2L = 24 um
    assert blockade_error(doubled_spacing, TWO_PI * 10.0) == pytest.approx(
        blockade_error(residue, TWO_PI * 10.0) / 4096.0, rel=1e-12
    )
    with pytest.raises(ValueError, match="omega0 must be > 0"):
        blockade_error(residue, 0.0)


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
    value = deutsch_budget(drive).two_photon
    assert value == pytest.approx(_two_photon_by_hand(drive, V), rel=1e-12)
    assert value == pytest.approx(rough, rel=0.01)


def test_two_photon_error_vanishes_at_large_blockade():
    drive = ref_drive(0.54)
    strong = REF_PARAMS.with_interaction_scaled(1e4)
    assert deutsch_budget(drive, params=strong).two_photon < 1e-10
    with pytest.raises(ValueError, match="v must be nonzero"):
        deutsch_budget(drive, params=REF_PARAMS.with_interaction_scaled(0.0))


@pytest.mark.parametrize("v", [1e-309, -5e-324])
def test_two_photon_error_names_a_non_finite_phase(v):
    # C6 scaled to a 1 rad/us blockade shift, then by v, gives a shift of v;
    # omega1 omega2 t / v overflows to inf, where math.sin has no value
    params = REF_PARAMS.with_interaction_scaled(1.0 / V).with_interaction_scaled(v)
    assert params.blockade == v
    with pytest.raises(ValueError, match="two-photon phase is not finite"):
        deutsch_budget(ref_drive(0.54), params=params)


@pytest.mark.parametrize("gate", ["deutsch", "toffoli", "cnot"])
def test_two_photon_phase_is_held_to_pi_over_two(gate):
    # C6 scaled so that the largest row's phase, the ratio pulses' for the
    # Deutsch gate and the swap pulse's otherwise, is pi/2 (1 -+ 1e-9);
    # past pi/2 the rows fall as the blockade weakens
    drive = ref_drive(0.54)
    durations = segment_durations(gate, drive)
    if gate == "deutsch":
        product = drive.omega1 * drive.omega2 * durations[1]
    else:
        product = drive.omega3**2 * durations[-2] / 2.0
    params = PARAMS[gate]

    def at_phase(factor):
        shift = product / (math.pi * factor)
        return params.with_interaction_scaled(shift / abs(params.blockade))

    assert math.isfinite(error_budget(drive, at_phase(1.0 - 1e-9), 1590.0, gate).total)
    with pytest.raises(ValueError, match=r"two-photon phase .* exceeds pi/2"):
        error_budget(drive, at_phase(1.0 + 1e-9), 1590.0, gate)


# ---------------------------------------------------------------------------
# totals and sweep
# ---------------------------------------------------------------------------

def test_total_error_reference_minima():
    cold = deutsch_budget(ref_drive(0.54))
    assert cold.total == pytest.approx(6.7e-3, rel=0.1)
    warm = deutsch_budget(ref_drive(0.92), "300K")
    assert warm.total == pytest.approx(18e-3, rel=0.1)


def test_total_error_is_component_sum():
    budget = deutsch_budget(ref_drive(0.7))
    assert budget.total == budget.decay + budget.blockade + budget.two_photon
    for term in (budget.decay, budget.blockade, budget.two_photon):
        assert term >= 0.0


def test_error_budget_carries_times_and_phase():
    drive = ref_drive(0.54)
    budget = error_budget(drive, REF_PARAMS, 1590.0)
    assert budget.gate_time_us == pytest.approx(0.1 + 3.0 / 0.54, rel=1e-12)
    # pi/w0 + 2 * 2pi/wbar + sqrt(2) pi/w3 by hand
    assert budget.control_dwell_us == pytest.approx(0.05 + 3.0 / 0.54, rel=1e-12)
    assert budget.mean_rydberg_time_us == pytest.approx(avg_dwell(drive), rel=1e-12)
    assert budget.residue_phase_rad == pytest.approx(7.3999, rel=1e-4)


# The acceptance numbers at the CLI defaults (0.54 MHz, 4.2 K); the decay
# terms agree with evolve's mean norm loss, 1.268e-3 and 7.435e-4.
PER_GATE = {
    "toffoli": dict(gate_time_us=1.95185, mean_rydberg_time_us=2.01759, decay=1.2689e-3,
                    blockade=8.988e-4, two_photon=5.495e-4, residue_phase_rad=2.4666),
    "cnot": dict(gate_time_us=1.95185, mean_rydberg_time_us=1.18241, decay=7.4365e-4,
                 blockade=0.0, two_photon=4.884e-4, residue_phase_rad=0.0),
}


@pytest.mark.parametrize("gate", sorted(PER_GATE))
def test_error_budget_of_the_three_pulse_gates(gate):
    budget = error_budget(ref_drive(0.54, 1.0), PARAMS[gate], 1590.0, gate)
    for field, expected in PER_GATE[gate].items():
        assert getattr(budget, field) == pytest.approx(expected, rel=1e-4, abs=1e-12), field
    assert budget.control_dwell_us == pytest.approx(0.05 + 1.0 / 0.54, rel=1e-12)


@pytest.mark.parametrize("gate", ["deutsch", "toffoli", "cnot"])
def test_error_budget_rejects_the_wrong_register(gate):
    wrong = REF_PARAMS_2 if PARAMS[gate] is REF_PARAMS else REF_PARAMS
    with pytest.raises(ValueError, match=f"the {gate} gate needs"):
        error_budget(ref_drive(0.54), wrong, 1590.0, gate)
    with pytest.raises(ValueError, match="gate must be one of"):
        error_budget(ref_drive(0.54), REF_PARAMS, 1590.0, "swap")


@pytest.mark.parametrize("gate", ["deutsch", "toffoli", "cnot"])
def test_analytic_results_hold_to_the_segment_phase_bound(gate):
    # at so slow a control drive the control pulses pi/w0 are the longest
    # segments, and their blockade phase pi |V| / w0 is 1e12 rad at w0 = slowest
    params = PARAMS[gate]
    slowest = math.pi * abs(params.blockade) / MAX_SEGMENT_PHASE
    inside = DriveParams.from_ratio(1.001 * slowest, TWO_PI * 0.54, 2.0)
    assert math.isfinite(error_budget(inside, params, 1590.0, gate).total)
    assert math.isfinite(residue_phase(gate, inside, params))
    past = DriveParams.from_ratio(0.999 * slowest, TWO_PI * 0.54, 2.0)
    with pytest.raises(ValueError, match=r"blockade phase .* exceeds 1e\+12 rad"):
        error_budget(past, params, 1590.0, gate)
    with pytest.raises(ValueError, match=r"blockade phase .* exceeds 1e\+12 rad"):
        residue_phase(gate, past, params)


def test_three_pulse_dwell_tables():
    # T_x = pi/w0 + sqrt(2) pi/w3 per control in g0; the swap tail
    # sqrt(2) pi/(4 w3) with every control in g1
    drive = ref_drive(0.77, 1.4)
    t_x = math.pi / drive.omega0 + SQRT2 * math.pi / drive.omega3
    tail = SQRT2 * math.pi / (4.0 * drive.omega3)
    toffoli = dict(zip(("000", "001", "010", "011", "100", "101", "110", "111"),
                       (2 * t_x, 2 * t_x, t_x, t_x, t_x, t_x, tail, tail)))
    cnot = {"00": t_x, "01": t_x, "10": tail, "11": tail}
    for gate, expected in (("toffoli", toffoli), ("cnot", cnot)):
        table = dwell_table(drive, gate)
        assert table.keys() == expected.keys()
        for label, value in expected.items():
            assert table[label] == pytest.approx(value, rel=1e-12), (gate, label)
        budget = error_budget(drive, PARAMS[gate], 1590.0, gate)
        assert budget.control_dwell_us == pytest.approx(t_x, rel=1e-12)


def test_three_pulse_two_photon_rows():
    # only the swap rows; the strong 4v row only with two controls
    drive = ref_drive(0.92)
    t_swap = SQRT2 * math.pi / drive.omega3
    weak = math.sin(drive.omega3**2 * t_swap / (4.0 * V)) ** 2
    strong = math.sin(drive.omega3**2 * t_swap / (8.0 * V)) ** 2
    cnot = error_budget(drive, REF_PARAMS_2, 1590.0, "cnot")
    toffoli = error_budget(drive, REF_PARAMS, 1590.0, "toffoli")
    assert cnot.two_photon == pytest.approx(weak / 2.0, rel=1e-12)
    assert toffoli.two_photon == pytest.approx(strong / 4.0 + weak / 2.0, rel=1e-12)


@pytest.mark.parametrize("gate", ["deutsch", "toffoli", "cnot"])
def test_sweep_follows_the_gate(gate):
    points = sweep(PARAMS[gate], gate=gate, start_mhz=0.5, stop_mhz=0.6, step_mhz=0.02)
    for p in points:
        budget = error_budget(p.drive, PARAMS[gate], 1590.0, gate)
        assert p.budget_4k == budget
        assert p.budget_300k == error_budget(p.drive, PARAMS[gate], 313.0, gate)
        assert p.budget_4k.gate_time_us == BUILDERS[gate](p.drive).total_duration
    with pytest.raises(ValueError, match="needs"):
        sweep(REF_PARAMS if gate == "cnot" else REF_PARAMS_2, gate=gate)


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


def test_sweep_point_pairs_each_temperature_with_its_budget():
    point = sweep(REF_PARAMS, start_mhz=0.54, stop_mhz=0.54)[0]
    assert point.budget("4.2K") is point.budget_4k
    assert point.budget("300K") is point.budget_300k
    message = "temperature must be one of ['300K', '4.2K'], got '77K'"
    with pytest.raises(ValueError) as error:
        point.budget("77K")
    assert str(error.value) == message
    with pytest.raises(ValueError) as error:
        argmin_total([point], "77K")
    assert str(error.value) == message


def test_sweep_names_the_refused_grid_point():
    # at L = 8.4 um the Deutsch ratio pulses' phase passes pi/2 between
    # 2.24 and 2.26 MHz, so the default grid is refused at 2.26 MHz
    params = PhysicalParams(c6_over_2pi=-633.0, spacing=8.4, lifetime=1590.0, n_atoms=3)
    with pytest.raises(ValueError) as error:
        sweep(params)
    assert str(error.value).startswith(
        "at omega_bar/2pi = 2.26 MHz: two-photon phase -1.58 rad exceeds pi/2"
    )
    # the point's own error, with the point in front
    with pytest.raises(ValueError) as point_error:
        error_budget(ref_drive(2.26), params, 1590.0)
    assert error.value.__cause__ is not None
    assert str(error.value) == f"at omega_bar/2pi = 2.26 MHz: {point_error.value}"
    assert len(sweep(params, stop_mhz=2.24)) == 112


def test_sweep_grid_validation():
    assert sweep_grid(0.02, 0.1, 0.02) == pytest.approx([0.02, 0.04, 0.06, 0.08, 0.1])
    with pytest.raises(ValueError):
        sweep_grid(0.0, 1.0, 0.02)
    with pytest.raises(ValueError):
        sweep_grid(0.02, 2.5, 0.02)
    with pytest.raises(ValueError):
        sweep_grid(0.02, 1.0, 0.0)
    # a count past 1e15 is printed rounded, not with its 301 digits
    with pytest.raises(ValueError, match=r"gives 2\.28e\+300 grid points") as error:
        sweep_grid(0.02, 2.3, 1e-300)
    assert len(str(error.value)) < 100


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
