"""Tests for the angle map, schedule synthesis, and phase matching."""

import math

import numpy as np
import pytest

from blockadesim import qcore
from blockadesim.ideal import deutsch_ideal
from blockadesim.model import PhysicalParams, segment_hamiltonian
from blockadesim.schedule import (
    RATIO_MAX,
    RATIO_MIN,
    DriveParams,
    cnot_schedule,
    deutsch_schedule,
    omegas_from_theta,
    residue_phase,
    segment_durations,
    solve_phase_matching,
    theta_from_omegas,
    toffoli_schedule,
)

TWO_PI = 2.0 * math.pi

REF_PARAMS = PhysicalParams(c6_over_2pi=-633.0, spacing=6.0, lifetime=1590.0, n_atoms=3)
REF_PARAMS_2 = PhysicalParams(c6_over_2pi=-633.0, spacing=6.0, lifetime=1590.0, n_atoms=2)


def ref_drive(omega_bar_mhz=0.54, ratio=2.0):
    return DriveParams.from_ratio(TWO_PI * 10.0, TWO_PI * omega_bar_mhz, ratio)


# ---------------------------------------------------------------------------
# angle map
# ---------------------------------------------------------------------------

def test_theta_ratio_two_gives_7_25():
    theta = theta_from_omegas(1.0, 2.0)
    assert abs(math.sin(theta) - 7.0 / 25.0) < 1e-12
    assert abs(math.cos(theta) - 24.0 / 25.0) < 1e-12


def test_theta_equal_rabi_is_pi_over_two():
    assert theta_from_omegas(1.0, 1.0) == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_theta_branch_endpoints():
    assert abs(theta_from_omegas(1.0, RATIO_MAX)) < 1e-9
    assert abs(theta_from_omegas(1.0, RATIO_MIN) - math.pi) < 1e-9


def test_theta_scale_invariance():
    assert theta_from_omegas(3.0, 6.0) == pytest.approx(
        theta_from_omegas(1.0, 2.0), abs=1e-12
    )


def test_theta_rejects_nonpositive():
    with pytest.raises(ValueError):
        theta_from_omegas(0.0, 1.0)
    with pytest.raises(ValueError):
        theta_from_omegas(1.0, -2.0)


def test_angle_algebraic_identity():
    # (6 p q - p^2 - q^2)^2 + 16 p q (q - p)^2 = (p + q)^4 with p = w1^2, q = w2^2
    rng = np.random.default_rng(123)
    for _ in range(200):
        w1, w2 = np.exp(rng.uniform(-3, 3, size=2))
        p, q = w1 * w1, w2 * w2
        left = (6 * p * q - p * p - q * q) ** 2 + 16 * p * q * (q - p) ** 2
        right = (p + q) ** 4
        assert abs(left - right) <= 1e-12 * right


def test_theta_strictly_monotone_on_branch():
    grid = np.linspace(RATIO_MIN, RATIO_MAX, 400)
    thetas = np.array([theta_from_omegas(1.0, r) for r in grid])
    assert np.all(np.diff(thetas) < 0.0)


@pytest.mark.parametrize(
    "theta,ratio",
    [
        (math.pi / 2.0, 1.0),
        (math.asin(7.0 / 25.0), 2.0),
        (0.0, RATIO_MAX),
        (math.pi, RATIO_MIN),
    ],
)
def test_omegas_from_theta_known_ratios(theta, ratio):
    omega1, omega2 = omegas_from_theta(theta, 1.0)
    assert omega2 / omega1 == pytest.approx(ratio, abs=1e-13)
    assert math.hypot(omega1, omega2) == pytest.approx(1.0, rel=1e-12)


def test_omegas_from_theta_roundtrip():
    rng = np.random.default_rng(77)
    worst = 0.0
    for theta in rng.uniform(0.0, math.pi, 200):
        omega1, omega2 = omegas_from_theta(theta, 2.5)
        worst = max(worst, abs(theta_from_omegas(omega1, omega2) - theta))
    assert worst < 1e-13


def test_branch_endpoints_map_back_exactly():
    # drive.theta feeds deutsch_ideal, which rejects anything outside [0, pi]
    rng = np.random.default_rng(5)
    omega_bars = [TWO_PI * f for f in np.arange(0.001, 2.3, 0.001)]
    omega_bars += list(np.exp(rng.uniform(-7.0, 7.0, 2000)))
    for omega_bar in omega_bars:
        for theta, ratio in ((0.0, RATIO_MAX), (math.pi, RATIO_MIN)):
            assert DriveParams.from_theta(TWO_PI * 10.0, omega_bar, theta).theta == theta
            drive = DriveParams.from_ratio(TWO_PI * 10.0, omega_bar, ratio)
            assert drive.theta == theta
            deutsch_ideal(drive.theta)
    # a ratio a few ulp off the branch snaps to its end instead of wrapping
    assert theta_from_omegas(1.0, RATIO_MAX * (1.0 + 1e-15)) == 0.0
    assert theta_from_omegas(1.0, RATIO_MIN * (1.0 - 1e-15)) == math.pi


def test_omegas_from_theta_domain_errors():
    with pytest.raises(ValueError):
        omegas_from_theta(-0.1, 1.0)
    with pytest.raises(ValueError):
        omegas_from_theta(math.pi + 0.1, 1.0)
    with pytest.raises(ValueError):
        omegas_from_theta(1.0, 0.0)


def test_drive_params_properties_and_validation():
    drive = ref_drive()
    assert drive.omega_bar == pytest.approx(TWO_PI * 0.54, rel=1e-12)
    assert drive.omega2 / drive.omega1 == pytest.approx(2.0, rel=1e-12)
    assert drive.omega3 == pytest.approx(TWO_PI * 0.54 / math.sqrt(2), rel=1e-12)
    assert drive.theta == pytest.approx(math.asin(7.0 / 25.0), abs=1e-12)
    with pytest.raises(ValueError):
        DriveParams(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="ratio must be > 0"):
        DriveParams.from_ratio(1.0, 1.0, -2.0)


def test_drive_params_from_theta():
    drive = DriveParams.from_theta(TWO_PI * 10.0, TWO_PI * 0.54, math.pi / 2.0)
    assert drive.omega1 == pytest.approx(drive.omega2, rel=1e-9)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_deutsch_schedule_durations():
    drive = ref_drive()
    schedule = deutsch_schedule(drive)
    expected = [
        math.pi / drive.omega0,
        TWO_PI / drive.omega_bar,
        TWO_PI / drive.omega_bar,
        math.sqrt(2) * math.pi / drive.omega3,
        math.pi / drive.omega0,
    ]
    assert [seg.duration for seg in schedule.segments] == pytest.approx(expected)
    assert schedule.gate_kind == "deutsch"
    assert schedule.n_atoms == 3


def test_deutsch_schedule_total_matches_gate_time():
    from blockadesim.budget import error_budget

    drive = ref_drive(0.77, 1.4)
    assert deutsch_schedule(drive).total_duration == pytest.approx(
        error_budget(drive, REF_PARAMS, 1590.0).gate_time_us, rel=1e-12
    )


@pytest.mark.parametrize(
    "gate,builder",
    [("deutsch", deutsch_schedule), ("toffoli", toffoli_schedule), ("cnot", cnot_schedule)],
)
def test_builders_use_the_segment_durations(gate, builder):
    drive = ref_drive(0.77, 1.4)
    schedule = builder(drive)
    assert tuple(seg.duration for seg in schedule.segments) == segment_durations(gate, drive)
    assert schedule.gate_kind == gate
    with pytest.raises(ValueError, match="gate must be one of"):
        segment_durations("swap", drive)


def test_deutsch_schedule_drive_structure():
    drive = ref_drive()
    segs = deutsch_schedule(drive).segments
    # control pulses hit g0 on atoms 0 and 1 with opposite signs
    assert {tr.atom for tr in segs[0].transitions} == {0, 1}
    assert all(tr.rabi == drive.omega0 for tr in segs[0].transitions)
    assert all(tr.rabi == -drive.omega0 for tr in segs[4].transitions)
    # ratio pulses: imaginary amplitude sits on the g1 leg, magnitudes swap
    by_lower_2 = {tr.lower: tr.rabi for tr in segs[1].transitions}
    by_lower_3 = {tr.lower: tr.rabi for tr in segs[2].transitions}
    assert by_lower_2["g0"] == pytest.approx(drive.omega1)
    assert by_lower_2["g1"] == pytest.approx(1j * drive.omega2)
    assert by_lower_3["g0"] == pytest.approx(drive.omega2)
    assert by_lower_3["g1"] == pytest.approx(1j * drive.omega1)
    # swap pulse: equal magnitude, pi phase difference
    by_lower_4 = {tr.lower: tr.rabi for tr in segs[3].transitions}
    assert by_lower_4["g1"] / by_lower_4["g0"] == pytest.approx(-1.0)


def test_toffoli_schedule_is_deutsch_without_ratio_pulses():
    drive = ref_drive()
    full = deutsch_schedule(drive).segments
    toffoli = toffoli_schedule(drive)
    assert len(toffoli.segments) == 3
    assert toffoli.segments == (full[0], full[3], full[4])


def test_cnot_schedule_durations():
    drive = ref_drive()
    schedule = cnot_schedule(drive)
    assert schedule.n_atoms == 2
    expected = [
        math.pi / drive.omega0,
        math.sqrt(2) * math.pi / drive.omega3,
        math.pi / drive.omega0,
    ]
    assert [seg.duration for seg in schedule.segments] == pytest.approx(expected)


@pytest.mark.parametrize("builder", [deutsch_schedule, toffoli_schedule, cnot_schedule])
def test_emitted_schedules_have_hermitian_hamiltonians(builder):
    drive = ref_drive(0.61, 1.7)
    schedule = builder(drive)
    params = REF_PARAMS if schedule.n_atoms == 3 else REF_PARAMS_2
    for segment in schedule.segments:
        assert qcore.is_hermitian(segment_hamiltonian(segment, params))


# ---------------------------------------------------------------------------
# residue phase
# ---------------------------------------------------------------------------

def test_phase_phi_supplement_values():
    phi_032 = residue_phase("deutsch", ref_drive(0.32), REF_PARAMS)
    phi_064 = residue_phase("deutsch", ref_drive(0.64), REF_PARAMS)
    assert phi_032 == pytest.approx(4.0 * math.pi, rel=0.01)
    assert phi_064 == pytest.approx(2.0 * math.pi, rel=0.01)
    # the Toffoli interior is the swap pulse alone, a third of the Deutsch one
    assert residue_phase("toffoli", ref_drive(0.64), REF_PARAMS) == pytest.approx(
        phi_064 / 3.0, rel=1e-12
    )
    assert residue_phase("cnot", ref_drive(0.64), REF_PARAMS_2) == 0.0


def test_phase_phi_scales_inversely_with_omega_bar():
    for gate in ("deutsch", "toffoli"):
        assert residue_phase(gate, ref_drive(0.4), REF_PARAMS) == pytest.approx(
            2.0 * residue_phase(gate, ref_drive(0.8), REF_PARAMS), rel=1e-12
        )


def test_phase_phi_sign():
    # negative C6 gives positive phi
    assert residue_phase("deutsch", ref_drive(), REF_PARAMS) > 0.0


def test_solve_phase_matching_values():
    assert solve_phase_matching(1, "deutsch", REF_PARAMS) / TWO_PI == pytest.approx(
        0.64, rel=0.01
    )
    assert solve_phase_matching(2, "deutsch", REF_PARAMS) / TWO_PI == pytest.approx(
        0.32, rel=0.01
    )
    # omega_bar_1 of the Toffoli is |V/64| itself: 0.21199 MHz
    assert solve_phase_matching(1, "toffoli", REF_PARAMS) == pytest.approx(
        abs(REF_PARAMS.control_residue), rel=1e-12
    )


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_solve_phase_matching_roundtrip(n):
    for gate in ("deutsch", "toffoli"):
        omega_bar = solve_phase_matching(n, gate, REF_PARAMS)
        drive = DriveParams.from_ratio(TWO_PI * 10.0, omega_bar, 2.0)
        assert abs(residue_phase(gate, drive, REF_PARAMS) - 2.0 * n * math.pi) < 1e-10


def test_solve_phase_matching_is_not_held_to_its_reference_drive():
    # at this C6 the 1 rad/us reference drive's blockade phase exceeds the
    # segment bound, but the matched drive is fast enough to simulate
    strong = REF_PARAMS.with_interaction_scaled(3e9)
    assert abs(strong.blockade) * TWO_PI > qcore.MAX_SEGMENT_PHASE
    omega_bar = solve_phase_matching(1, "deutsch", strong)
    drive = DriveParams.from_ratio(TWO_PI * 10.0, omega_bar, 2.0)
    assert residue_phase("deutsch", drive, strong) == pytest.approx(TWO_PI, abs=1e-9)


def test_solve_phase_matching_domain_errors():
    # no residue, no solutions: the CNOT, or controls without a shift
    with pytest.raises(ValueError, match="no residue phase"):
        solve_phase_matching(1, "cnot", REF_PARAMS_2)
    # a three-atom residue does not belong to the CNOT
    with pytest.raises(ValueError, match="the cnot gate needs 2 atoms"):
        solve_phase_matching(1, "cnot", REF_PARAMS)
    with pytest.raises(ValueError, match="no residue phase"):
        solve_phase_matching(1, "deutsch", REF_PARAMS.with_interaction_scaled(0.0))
    with pytest.raises(ValueError):
        solve_phase_matching(0, "deutsch", REF_PARAMS)
    with pytest.raises(ValueError):
        solve_phase_matching(1.5, "deutsch", REF_PARAMS)
    # a residue phase so small that omega_bar_N leaves the normal floats
    tiny = PhysicalParams(1e-320, 6.0, 1590.0)
    with pytest.raises(ValueError, match="deutsch gate's residue phase .* N = 1 below"):
        solve_phase_matching(1, "deutsch", tiny)
