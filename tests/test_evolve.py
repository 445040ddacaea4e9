"""Tests for schedule propagation, diagnostics, and analytic cross-checks."""

import math

import numpy as np
import pytest

from blockadesim import qcore
from blockadesim.budget import avg_dwell, control_dwell, decay_error, dwell_table
from blockadesim.evolve import SimulationOptions, evolve
from blockadesim.ideal import cnot_ideal, deutsch_ideal, gate_fidelity, toffoli_ideal
from blockadesim.model import (
    GateSchedule,
    PhysicalParams,
    PulseSegment,
    Transition,
    segment_hamiltonian,
)
from blockadesim.schedule import (
    DriveParams,
    cnot_schedule,
    deutsch_schedule,
    toffoli_schedule,
)

TWO_PI = 2.0 * math.pi

REF_PARAMS = PhysicalParams(c6_over_2pi=-633.0, spacing=6.0, lifetime=1590.0, n_atoms=3)
REF_PARAMS_2 = PhysicalParams(c6_over_2pi=-633.0, spacing=6.0, lifetime=1590.0, n_atoms=2)
DRIVE = DriveParams.from_ratio(TWO_PI * 10.0, TWO_PI * 0.54, 2.0)

NO_DWELL = SimulationOptions(compute_dwell=False)

I110 = qcore.basis_index(("g1", "g1", "g0"))
I111 = qcore.basis_index(("g1", "g1", "g1"))


def weak_row_two_photon_prediction(drive, v):
    """Table-style sin^2 loss for the singly excited-control inputs."""
    t = TWO_PI / drive.omega_bar
    t_swap = math.sqrt(2.0) * math.pi / drive.omega3
    return (
        math.sin(drive.omega1 * drive.omega2 * t / (2.0 * v)) ** 2
        + math.sin(drive.omega3**2 * t_swap / (4.0 * v)) ** 2
    )


def test_empty_schedule_is_identity():
    result = evolve(GateSchedule((), "idle", 3), REF_PARAMS)
    np.testing.assert_array_equal(result.full_propagator, np.eye(27))
    np.testing.assert_array_equal(result.computational_block, np.eye(8))
    assert result.dwell_per_input["000"] == 0.0
    assert result.phase_mismatch == 0.0


def test_register_mismatch_rejected():
    with pytest.raises(ValueError):
        evolve(cnot_schedule(DRIVE), REF_PARAMS)


def test_pulse2_matches_lambda_closed_form():
    # the ratio pulse alone: |110> -> [(w2^2-w1^2)|110> + 2i w1 w2 |111>]/wbar^2
    partial = GateSchedule((deutsch_schedule(DRIVE).segments[1],), "partial", 3)
    u = evolve(partial, REF_PARAMS, NO_DWELL).full_propagator
    o1, o2, ob = DRIVE.omega1, DRIVE.omega2, DRIVE.omega_bar
    assert u[I110, I110] == pytest.approx((o2**2 - o1**2) / ob**2, abs=1e-12)
    assert u[I111, I110] == pytest.approx(2j * o1 * o2 / ob**2, abs=1e-12)
    assert u[I110, I111] == pytest.approx(-2j * o1 * o2 / ob**2, abs=1e-12)
    assert u[I111, I111] == pytest.approx((o1**2 - o2**2) / ob**2, abs=1e-12)


def test_ratio_pulses_realize_gate_angle():
    # after both ratio pulses: sin(theta)|110> + i cos(theta)|111>
    partial = GateSchedule(deutsch_schedule(DRIVE).segments[1:3], "partial", 3)
    u = evolve(partial, REF_PARAMS, NO_DWELL).full_propagator
    theta = DRIVE.theta
    assert u[I110, I110] == pytest.approx(math.sin(theta), abs=1e-10)
    assert u[I111, I110] == pytest.approx(1j * math.cos(theta), abs=1e-10)


def test_swap_pulse_exchanges_target_levels():
    partial = GateSchedule((deutsch_schedule(DRIVE).segments[3],), "partial", 3)
    u = evolve(partial, REF_PARAMS, NO_DWELL).full_propagator
    assert u[I111, I110] == pytest.approx(1.0, abs=1e-10)
    assert u[I110, I111] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "builder,ideal,params",
    [
        (deutsch_schedule, deutsch_ideal(DRIVE.theta), REF_PARAMS),
        (toffoli_schedule, toffoli_ideal(), REF_PARAMS),
        (cnot_schedule, cnot_ideal(), REF_PARAMS_2),
    ],
)
def test_blockade_limit_convergence(builder, ideal, params):
    opts = SimulationOptions(
        cc_interaction="none", frame_correction=True, compute_dwell=False
    )
    infidelities = []
    for scale in (10.0, 100.0, 1000.0):
        result = evolve(builder(DRIVE), params.with_interaction_scaled(scale), opts)
        infidelities.append(1.0 - gate_fidelity(result.computational_block, ideal))
    assert infidelities[0] > infidelities[1] > infidelities[2]
    assert infidelities[2] < 1e-4
    # roughly 1/V^2: two decades of scale give near four decades of error
    assert infidelities[0] / infidelities[2] > 1e3


def test_deutsch_gate_pair_block_entries():
    # |110>/|111> never excite a control, so the 2x2 gate block is exact at
    # any interaction strength
    result = evolve(deutsch_schedule(DRIVE), REF_PARAMS, NO_DWELL)
    block = result.computational_block
    theta = DRIVE.theta
    assert block[6, 6] == pytest.approx(1j * math.cos(theta), abs=1e-10)
    assert block[7, 7] == pytest.approx(1j * math.cos(theta), abs=1e-10)
    assert block[6, 7] == pytest.approx(math.sin(theta), abs=1e-10)
    assert block[7, 6] == pytest.approx(math.sin(theta), abs=1e-10)


def test_cnot_blockade_limit_basis_maps():
    params = REF_PARAMS_2.with_interaction_scaled(1000.0)
    block = evolve(cnot_schedule(DRIVE), params, NO_DWELL).computational_block
    assert abs(block[0, 0]) == pytest.approx(1.0, abs=1e-4)   # |00> -> |00>
    assert abs(block[1, 1]) == pytest.approx(1.0, abs=1e-4)   # |01> -> |01>
    assert abs(block[3, 2]) == pytest.approx(1.0, abs=1e-6)   # |10> -> |11>
    assert abs(block[2, 3]) == pytest.approx(1.0, abs=1e-6)   # |11> -> |10>


@pytest.mark.parametrize(
    "builder,params",
    [
        (deutsch_schedule, REF_PARAMS),
        (toffoli_schedule, REF_PARAMS),
        (cnot_schedule, REF_PARAMS_2),
    ],
)
def test_no_decay_propagator_is_unitary(builder, params):
    result = evolve(builder(DRIVE), params, NO_DWELL)
    assert qcore.unitarity_defect(result.full_propagator) < 1e-9
    assert max(abs(v) for v in result.norm_loss_per_input.values()) < 1e-10


def test_leakage_bounds_and_column_norms():
    result = evolve(deutsch_schedule(DRIVE), REF_PARAMS, NO_DWELL)
    for value in result.leakage_per_input.values():
        assert 0.0 <= value <= 1.0
    col_norms = np.linalg.norm(result.computational_block, axis=0)
    assert np.all(col_norms <= 1.0 + 1e-12)


def test_weak_row_leakage_matches_two_photon_prediction():
    """The two-photon loss ends in the neighbouring computational state, so
    it is measured as the transferred population."""
    result = evolve(deutsch_schedule(DRIVE), REF_PARAMS, NO_DWELL)
    block = result.computational_block
    prediction = weak_row_two_photon_prediction(DRIVE, REF_PARAMS.blockade)
    for src, dst in ((2, 3), (3, 2), (4, 5), (5, 4)):  # 010<->011, 100<->101
        transferred = abs(block[dst, src]) ** 2
        assert transferred == pytest.approx(prediction, rel=0.2)


def test_decay_norm_loss_matches_budget():
    opts = SimulationOptions(decay_tau=1590.0, compute_dwell=False)
    result = evolve(deutsch_schedule(DRIVE), REF_PARAMS, opts)
    mean_loss = np.mean(list(result.norm_loss_per_input.values()))
    assert mean_loss == pytest.approx(decay_error(DRIVE, 1590.0), rel=0.1)


def test_decay_tau_validation():
    with pytest.raises(ValueError):
        evolve(deutsch_schedule(DRIVE), REF_PARAMS, SimulationOptions(decay_tau=0.0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau", [1e-306, 5e-324, 1e-12])
def test_decay_rate_counts_toward_the_segment_phase(tau):
    # 0.5 * 3 / tau over the 1.85 us target pulses passes 1e12 rad at each
    # of these lifetimes; without the decay term the segments sit far below
    with pytest.raises(ValueError, match="tau"):
        evolve(deutsch_schedule(DRIVE), REF_PARAMS, SimulationOptions(decay_tau=tau))
    result = evolve(deutsch_schedule(DRIVE), REF_PARAMS, SimulationOptions(decay_tau=1e-6))
    assert all(math.isfinite(loss) for loss in result.norm_loss_per_input.values())


@pytest.mark.parametrize(
    "decay_tau,compute_dwell,eighs,pades",
    [(None, True, 1, 0), (1590.0, True, 1, 1), (None, False, 1, 0), (1590.0, False, 0, 1)],
)
def test_one_decomposition_per_evolve(monkeypatch, decay_tau, compute_dwell, eighs, pades):
    # the dwell shares the propagator's eigh with decay off, and takes its
    # unitary steps from the same eigh with decay on
    calls = {"eigh": 0, "pade": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(qcore, "pade_expm", counted("pade", qcore.pade_expm))
    options = SimulationOptions(decay_tau=decay_tau, compute_dwell=compute_dwell)
    result = evolve(deutsch_schedule(DRIVE), REF_PARAMS, options)
    assert calls == {"eigh": eighs, "pade": pades}
    assert (result.dwell_per_input is not None) == compute_dwell


def test_frame_correction_phase_bookkeeping():
    corrected = evolve(
        deutsch_schedule(DRIVE),
        REF_PARAMS,
        SimulationOptions(frame_correction=True, compute_dwell=False),
    )
    expected_phi = -deutsch_schedule(DRIVE).interior_duration * REF_PARAMS.control_residue
    assert corrected.phase_correction == pytest.approx(expected_phi, rel=1e-12)
    # ramp-through contribution of the control pulses stays small
    assert abs(corrected.phase_mismatch) < 0.01
    # with the correction applied the surviving |000> amplitude is nearly real
    amp = corrected.full_propagator[0, 0]
    assert abs(np.angle(amp)) < 0.01

    uncorrected = evolve(deutsch_schedule(DRIVE), REF_PARAMS, NO_DWELL)
    assert uncorrected.phase_mismatch == pytest.approx(
        corrected.phase_mismatch, abs=1e-12
    )
    # correction only touches the two both-controls-ground columns
    np.testing.assert_allclose(
        corrected.full_propagator[:, 3:],
        uncorrected.full_propagator[:, 3:],
        atol=1e-14,
    )


def test_frame_corrected_evolve_repeats_exactly():
    # the correction scales propagator columns picked by the cached,
    # read-only computational index table; a second call must not see it
    options = SimulationOptions(frame_correction=True)
    first = evolve(deutsch_schedule(DRIVE), REF_PARAMS, options)
    second = evolve(deutsch_schedule(DRIVE), REF_PARAMS, options)
    assert first.phase_correction != 0.0
    np.testing.assert_array_equal(first.full_propagator, second.full_propagator)
    assert first.dwell_per_input == second.dwell_per_input


def test_frame_correction_noop_without_residue():
    result = evolve(
        cnot_schedule(DRIVE),
        REF_PARAMS_2,
        SimulationOptions(frame_correction=True, compute_dwell=False),
    )
    assert result.phase_correction == 0.0


# ---------------------------------------------------------------------------
# dwell times
# ---------------------------------------------------------------------------

def test_dwell_singly_excited_control():
    dwell = evolve(deutsch_schedule(DRIVE), REF_PARAMS).dwell_per_input["010"]
    assert dwell == pytest.approx(control_dwell(DRIVE), rel=0.01)


def test_dwell_doubly_excited_controls():
    dwell = evolve(deutsch_schedule(DRIVE), REF_PARAMS).dwell_per_input["000"]
    assert dwell == pytest.approx(2.0 * control_dwell(DRIVE), rel=0.01)


def test_dwell_gate_pair_input():
    # ratio 2: (pi/wbar)(29/125) + pi/(2 sqrt(2) w3)
    expected = (math.pi / DRIVE.omega_bar) * (29.0 / 125.0) + math.pi / (
        2.0 * math.sqrt(2.0) * DRIVE.omega3
    )
    dwell = evolve(deutsch_schedule(DRIVE), REF_PARAMS).dwell_per_input["110"]
    assert dwell == pytest.approx(expected, rel=0.01)


def test_evolve_dwell_agrees_with_closed_forms():
    result = evolve(deutsch_schedule(DRIVE), REF_PARAMS)
    table = dwell_table(DRIVE)
    for label, expected in table.items():
        assert result.dwell_per_input[label] == pytest.approx(expected, rel=0.01)
    simulated_mean = np.mean(list(result.dwell_per_input.values()))
    assert simulated_mean == pytest.approx(avg_dwell(DRIVE), rel=0.01)


def _one_atom_schedule(*segments):
    return GateSchedule(segments, "one-atom", 2)


@pytest.mark.parametrize("duration", [0.3, 2.0, 37.7])
def test_dwell_resonant_segment_is_exact(duration):
    # sin^2(Omega t / 2) integrates to T/2 - sin(Omega T)/(2 Omega) for any T,
    # not only for whole Rabi periods (2 pi / Omega = 1 us here)
    omega = TWO_PI * 1.0
    pulse = PulseSegment((Transition(0, "g0", omega),), duration)
    dwell = evolve(_one_atom_schedule(pulse), REF_PARAMS_2).dwell_per_input["00"]
    expected = duration / 2.0 - math.sin(omega * duration) / (2.0 * omega)
    assert dwell == pytest.approx(expected, rel=1e-12)


def test_dwell_wait_in_rydberg_adds_wait_time():
    # the wait segment's Hamiltonian is diagonal with degenerate eigenvalues
    omega = TWO_PI * 1.0
    pi_pulse = PulseSegment((Transition(0, "g0", omega),), math.pi / omega)
    wait = PulseSegment((), 1.25)
    dwell = evolve(_one_atom_schedule(pi_pulse, wait), REF_PARAMS_2).dwell_per_input["00"]
    assert dwell == pytest.approx(math.pi / (2.0 * omega) + 1.25, rel=1e-12)


def test_dwell_blockade_limit_matches_table():
    opts = SimulationOptions(cc_interaction="none")
    params = REF_PARAMS.with_interaction_scaled(1e3)
    result = evolve(deutsch_schedule(DRIVE), params, opts)
    for label, expected in dwell_table(DRIVE).items():
        assert result.dwell_per_input[label] == pytest.approx(expected, rel=1e-8)


def test_dwell_finite_at_extreme_control_drive():
    # control pi pulses 0.5 ps long next to us-long target pulses: sampling
    # at a fraction of the shortest segment would take ~1e8 samples
    drive = DriveParams.from_ratio(TWO_PI * 1e6, TWO_PI * 0.54, 2.0)
    result = evolve(deutsch_schedule(drive), REF_PARAMS)
    assert qcore.unitarity_defect(result.full_propagator) < 1e-9
    table = dwell_table(drive)
    for label, expected in table.items():
        assert math.isfinite(result.dwell_per_input[label])
        assert result.dwell_per_input[label] == pytest.approx(expected, rel=0.01)


def test_wait_segment_only_accumulates_interaction_phase():
    wait = GateSchedule((PulseSegment((), 2.0),), "wait", 3)
    result = evolve(wait, REF_PARAMS, NO_DWELL)
    u = result.full_propagator
    assert np.abs(u - np.diag(np.diag(u))).max() < 1e-14
    np.testing.assert_allclose(np.abs(np.diag(u)), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# sector packing against the full-space reference
# ---------------------------------------------------------------------------

GRID_MHZ = [0.02 + 0.02 * i for i in range(115)]
GATES = [
    (deutsch_schedule, REF_PARAMS),
    (toffoli_schedule, REF_PARAMS),
    (cnot_schedule, REF_PARAMS_2),
]


def reference_evolve(schedule, params, decay_tau=None, cc_interaction="physical"):
    """Propagator and dwell times without sector packing: the product of one
    full-space exponential per segment, and the closed-form dwell integral
    on the full space, one computational input per column."""
    n = schedule.n_atoms
    weights = qcore.rydberg_weights(n)
    decay = 0.0 if decay_tau is None else np.diag(-0.5j / decay_tau * weights)
    comp = qcore.computational_indices(n)
    propagator = np.eye(3**n, dtype=complex)
    psi = propagator[:, comp]
    totals = np.zeros(len(comp))
    for seg in schedule.segments:
        h = segment_hamiltonian(seg, params, cc_interaction=cc_interaction)
        t = seg.duration
        step = qcore.matrix_exponential(h + decay, t, hermitian=decay_tau is None)
        propagator = step @ propagator
        eigvals, eigvecs = np.linalg.eigh(h)
        adjoint = eigvecs.conj().T
        coeffs = adjoint @ psi
        overlap = (adjoint * weights) @ eigvecs
        phase = np.subtract.outer(eigvals, eigvals) * t
        kernel = t * np.exp(0.5j * phase) * np.sinc(phase / (2.0 * np.pi))
        totals += np.sum(coeffs.conj() * ((overlap * kernel) @ coeffs), axis=0).real
        psi = eigvecs @ (np.exp(-1j * eigvals * t)[:, None] * coeffs)
    labels = qcore.computational_labels(n)
    return propagator, dict(zip(labels, totals))


def schedule_couplings(schedule):
    return frozenset(
        (tr.atom, tr.lower) for seg in schedule.segments for tr in seg.transitions
    )


def assert_matches_reference(schedule, params, decay_tau, cc, prop_tol, dwell_rtol):
    options = SimulationOptions(decay_tau=decay_tau, cc_interaction=cc)
    result = evolve(schedule, params, options)
    propagator, dwell = reference_evolve(schedule, params, decay_tau, cc)
    assert np.abs(result.full_propagator - propagator).max() <= prop_tol
    for label, expected in dwell.items():
        assert abs(result.dwell_per_input[label] - expected) <= dwell_rtol * abs(expected)


@pytest.mark.parametrize("cc", ["physical", "none"])
@pytest.mark.parametrize("decay_tau", [None, 1590.0])
@pytest.mark.parametrize("builder,params", GATES)
def test_sector_evolve_matches_full_space_reference(builder, params, decay_tau, cc):
    assert_matches_reference(builder(DRIVE), params, decay_tau, cc, 1e-13, 1e-13)


def _control_on_g1_schedule():
    # a g1 <-> r drive on control 1 joins the sectors that differ in that
    # control's ground level, giving blocks of 18 and 9
    kick = PulseSegment((Transition(0, "g1", TWO_PI * 3.0),), 0.07)
    return GateSchedule((*deutsch_schedule(DRIVE).segments, kick), "hand-built", 3)


def _target_only_schedule():
    # no control pulse: nine blocks of 3, one per pair of control levels
    return GateSchedule(deutsch_schedule(DRIVE).segments[1:4], "hand-built", 3)


@pytest.mark.parametrize("decay_tau", [None, 1590.0])
@pytest.mark.parametrize(
    "build,sizes",
    [(_control_on_g1_schedule, [18, 9]), (_target_only_schedule, [3] * 9)],
)
def test_sector_evolve_follows_the_schedule_couplings(build, sizes, decay_tau):
    schedule = build()
    _, valid = qcore.sectors(3, schedule_couplings(schedule))
    assert valid.sum(axis=1).tolist() == sizes
    assert_matches_reference(schedule, REF_PARAMS, decay_tau, "physical", 1e-13, 1e-13)


@pytest.mark.parametrize("decay_tau", [None, 1590.0])
def test_sector_evolve_matches_reference_across_the_grid(decay_tau):
    # at 0.02 MHz the decayed target pulses reach about 1e4 rad
    for f in GRID_MHZ:
        drive = DriveParams.from_ratio(TWO_PI * 10.0, TWO_PI * f, 2.0)
        assert_matches_reference(
            deutsch_schedule(drive), REF_PARAMS, decay_tau, "physical", 5e-12, 1e-13
        )


@pytest.mark.parametrize("cc", ["physical", "none"])
@pytest.mark.parametrize("builder,params", GATES)
def test_segment_hamiltonians_vanish_off_the_sectors(builder, params, cc):
    schedule = builder(DRIVE)
    index, valid = qcore.sectors(params.n_atoms, schedule_couplings(schedule))
    block_of = np.empty(3**params.n_atoms, dtype=int)
    block_of[index[valid]] = np.nonzero(valid)[0]
    off_block = block_of[:, None] != block_of[None, :]
    for seg in schedule.segments:
        h = segment_hamiltonian(seg, params, cc_interaction=cc)
        assert np.count_nonzero(h[off_block]) == 0
