"""Tests for schedule propagation, diagnostics, and analytic cross-checks."""

import importlib
import math

import numpy as np
import pytest

from blockadesim import qcore
from blockadesim.budget import TAU_BY_TEMPERATURE, avg_dwell, dwell_table, error_budget
from blockadesim.evolve import SimulationOptions, _dwell_operators, evolve
from blockadesim.ideal import cnot_ideal, deutsch_ideal, gate_fidelity, toffoli_ideal
from blockadesim.model import (
    GateSchedule,
    PhysicalParams,
    PulseSegment,
    Transition,
    computational_labels,
    segment_hamiltonian,
)
from blockadesim.schedule import (
    DriveParams,
    cnot_schedule,
    deutsch_schedule,
    residue_phase,
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


@pytest.mark.parametrize("compute_dwell", [False, True])
@pytest.mark.parametrize("decay_tau", [None, 1590.0])
def test_empty_schedule_is_identity(decay_tau, compute_dwell):
    # no segments: a layout of no blocks, each padded to one slot, and no
    # classes
    layout = qcore.segment_layout(3, ())
    assert [a.shape for a in layout] == [(0, 1, 1), (0,), (0, 1), (0, 1), (0,), (0,)]
    options = SimulationOptions(decay_tau=decay_tau, compute_dwell=compute_dwell)
    result = evolve(GateSchedule((), "idle", 3), REF_PARAMS, options)
    np.testing.assert_array_equal(result.full_propagator, np.eye(27))
    np.testing.assert_array_equal(result.computational_block, np.eye(8))
    assert set(result.leakage_per_input.values()) == {0.0}
    assert set(result.norm_loss_per_input.values()) == {0.0}
    if compute_dwell:
        assert result.dwell_per_input == dict.fromkeys(computational_labels(3), 0.0)
    else:
        assert result.dwell_per_input is None
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
    it is measured as the transferred population.  The three-pulse gates
    have the swap row only."""
    v = REF_PARAMS.blockade
    result = evolve(deutsch_schedule(DRIVE), REF_PARAMS, NO_DWELL)
    block = result.computational_block
    prediction = weak_row_two_photon_prediction(DRIVE, v)
    for src, dst in ((2, 3), (3, 2), (4, 5), (5, 4)):  # 010<->011, 100<->101
        transferred = abs(block[dst, src]) ** 2
        assert transferred == pytest.approx(prediction, rel=0.2)
    t_swap = math.sqrt(2.0) * math.pi / DRIVE.omega3
    swap_row = math.sin(DRIVE.omega3**2 * t_swap / (4.0 * v)) ** 2
    toffoli = evolve(toffoli_schedule(DRIVE), REF_PARAMS, NO_DWELL).computational_block
    assert abs(toffoli[3, 2]) ** 2 == pytest.approx(swap_row, rel=0.2)  # 010 -> 011
    cnot = evolve(cnot_schedule(DRIVE), REF_PARAMS_2, NO_DWELL).computational_block
    assert abs(cnot[1, 0]) ** 2 == pytest.approx(swap_row, rel=0.2)  # 00 -> 01


def test_decay_norm_loss_matches_budget():
    tau = TAU_BY_TEMPERATURE["4.2K"]
    opts = SimulationOptions(decay_tau=tau, compute_dwell=False)
    result = evolve(deutsch_schedule(DRIVE), REF_PARAMS, opts)
    mean_loss = np.mean(list(result.norm_loss_per_input.values()))
    budget = error_budget(DRIVE, REF_PARAMS, tau)
    assert mean_loss == pytest.approx(budget.decay, rel=0.1)


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


@pytest.mark.parametrize("compute_dwell", [False, True])
@pytest.mark.parametrize("decay_tau", [None, 1590.0])
def test_evolve_keeps_the_tracer_contract(monkeypatch, decay_tau, compute_dwell):
    # the benchmark's tracer (perfbench/tracing.py) wraps segment_hamiltonian
    # under evolve's module-global name and names each matrix_exponential
    # span after its hermitian keyword
    evolve_module = importlib.import_module("blockadesim.evolve")
    exponential = qcore.matrix_exponential
    builds, hermitian = [], []

    def counted_build(seg, *args, **kwargs):
        builds.append(seg)
        return segment_hamiltonian(seg, *args, **kwargs)

    def recorded_exponential(*args, **kwargs):
        hermitian.append(kwargs["hermitian"])
        return exponential(*args, **kwargs)

    monkeypatch.setattr(evolve_module, "segment_hamiltonian", counted_build)
    monkeypatch.setattr(qcore, "matrix_exponential", recorded_exponential)
    schedule = deutsch_schedule(DRIVE)
    options = SimulationOptions(decay_tau=decay_tau, compute_dwell=compute_dwell)
    evolve(schedule, REF_PARAMS, options)
    assert len(builds) == 5 and builds == list(schedule.segments)
    # decay and dwell on: the dwell's unitary steps come from the shared eigh
    decayed_dwell = decay_tau is not None and compute_dwell
    assert hermitian == [decay_tau is None] + [True] * decayed_dwell


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


@pytest.mark.parametrize(
    "gate,builder,params",
    [("deutsch", deutsch_schedule, REF_PARAMS), ("toffoli", toffoli_schedule, REF_PARAMS),
     ("cnot", cnot_schedule, REF_PARAMS_2)],
)
def test_budget_residue_phase_is_the_simulated_correction(gate, builder, params):
    result = evolve(builder(DRIVE), params, NO_DWELL)
    assert residue_phase(gate, DRIVE, params) == result.phase_correction


# ---------------------------------------------------------------------------
# dwell times
# ---------------------------------------------------------------------------

def budget_control_dwell(drive):
    return error_budget(drive, REF_PARAMS, TAU_BY_TEMPERATURE["4.2K"]).control_dwell_us


def test_dwell_singly_excited_control():
    dwell = evolve(deutsch_schedule(DRIVE), REF_PARAMS).dwell_per_input["010"]
    assert dwell == pytest.approx(budget_control_dwell(DRIVE), rel=0.01)


def test_dwell_doubly_excited_controls():
    dwell = evolve(deutsch_schedule(DRIVE), REF_PARAMS).dwell_per_input["000"]
    assert dwell == pytest.approx(2.0 * budget_control_dwell(DRIVE), rel=0.01)


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
    for gate, builder, params in (
        ("deutsch", deutsch_schedule, REF_PARAMS),
        ("toffoli", toffoli_schedule, REF_PARAMS),
        ("cnot", cnot_schedule, REF_PARAMS_2),
    ):
        result = evolve(builder(DRIVE), params.with_interaction_scaled(1e3), opts)
        table = dwell_table(DRIVE, gate)
        assert table.keys() == result.dwell_per_input.keys()
        for label, expected in table.items():
            assert result.dwell_per_input[label] == pytest.approx(expected, rel=1e-8), (
                gate, label
            )


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
    weights = np.sum(qcore.level_codes(n) == qcore.LEVEL_CODE["r"], axis=0)
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
    labels = computational_labels(n)
    return propagator, dict(zip(labels, totals))


def schedule_blocks(schedule):
    """Block of every basis index in the schedule's sector layout."""
    couplings = frozenset(
        (tr.atom, tr.lower) for seg in schedule.segments for tr in seg.transitions
    )
    layout = qcore.segment_layout(schedule.n_atoms, (couplings,))
    # the slots of a block that are not padding hold its basis states
    in_block = layout.basis < 3**schedule.n_atoms
    block_of = np.empty(3**schedule.n_atoms, dtype=np.intp)
    block_of[layout.basis[in_block]] = np.nonzero(in_block)[0]
    return block_of


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
    assert np.bincount(schedule_blocks(schedule)).tolist() == sizes
    assert_matches_reference(schedule, REF_PARAMS, decay_tau, "physical", 1e-13, 1e-13)


@pytest.mark.parametrize("decay_tau", [None, 1590.0])
def test_sector_evolve_matches_reference_across_the_grid(decay_tau):
    # at 0.02 MHz the decayed target pulses reach about 1e4 rad
    for f in GRID_MHZ:
        drive = DriveParams.from_ratio(TWO_PI * 10.0, TWO_PI * f, 2.0)
        assert_matches_reference(
            deutsch_schedule(drive), REF_PARAMS, decay_tau, "physical", 5e-12, 1e-13
        )


def every_block_layout(layout):
    """``layout`` with every block a class of its own, so that evolve
    exponentiates each padded block."""
    every = np.arange(len(layout.index))
    return layout._replace(representative=every, block_class=every)


@pytest.mark.parametrize("f_mhz", [0.02, 0.54, 2.3])
@pytest.mark.parametrize("compute_dwell", [False, True])
@pytest.mark.parametrize("decay_tau", [None, 1590.0])
@pytest.mark.parametrize("builder,params", GATES)
def test_one_block_per_class_is_exact(
    monkeypatch, builder, params, decay_tau, compute_dwell, f_mhz
):
    # blocks of one class are equal, so exponentiating one of each gives the
    # same bits as exponentiating all of them
    schedule = builder(DriveParams.from_ratio(TWO_PI * 10.0, TWO_PI * f_mhz, 2.0))
    options = SimulationOptions(decay_tau=decay_tau, compute_dwell=compute_dwell)
    result = evolve(schedule, params, options)
    layout = qcore.segment_layout
    monkeypatch.setattr(qcore, "segment_layout", lambda *args: every_block_layout(layout(*args)))
    reference = evolve(schedule, params, options)
    np.testing.assert_array_equal(result.full_propagator, reference.full_propagator)
    np.testing.assert_array_equal(result.computational_block, reference.computational_block)
    for name in ("leakage_per_input", "norm_loss_per_input", "dwell_per_input",
                 "phase_correction", "phase_mismatch"):
        assert getattr(result, name) == getattr(reference, name), name


def mixing_degenerate_eigenvectors(eigh):
    """``eigh`` with every pair of equal eigenvalues' eigenvectors rotated
    into each other, as LAPACK may return them.  A padding slot's eigenvalue
    0 equals a Lambda block's dark state's, and a 1-state block padded to
    ``m`` has ``m`` zero eigenvalues."""
    def mixed(a):
        eigvals, eigvecs = eigh(a)
        eigvecs = eigvecs.copy()
        for index in np.ndindex(eigvals.shape[:-1]):
            lam, vecs = eigvals[index], eigvecs[index]
            for j in np.flatnonzero(np.diff(lam) <= 1e-12 * max(1.0, np.abs(lam).max())):
                pair = vecs[:, [j, j + 1]] @ np.array([[1.0, 1j], [1j, 1.0]])
                vecs[:, [j, j + 1]] = pair / math.sqrt(2.0)
        return eigvals, eigvecs
    return mixed


@pytest.mark.parametrize("decay_tau", [None, 1590.0])
@pytest.mark.parametrize("builder,params", GATES)
def test_dwell_in_padded_blocks_holds_under_degenerate_mixing(
    monkeypatch, builder, params, decay_tau
):
    # the dwell must not drop the padding components of an eigenvector:
    # where eigh mixes a padding slot into a block state, only the two
    # together span the block
    schedule = builder(DRIVE)
    propagator, dwell = reference_evolve(schedule, params, decay_tau)
    monkeypatch.setattr(np.linalg, "eigh", mixing_degenerate_eigenvectors(np.linalg.eigh))
    result = evolve(schedule, params, SimulationOptions(decay_tau=decay_tau))
    assert np.abs(result.full_propagator - propagator).max() <= 1e-13
    for label, expected in dwell.items():
        assert abs(result.dwell_per_input[label] - expected) <= 1e-13 * abs(expected), label


def padded_dwell_blocks(seed):
    """Hermitian blocks padded to 4 with their durations, Rydberg weights and
    sizes: random blocks of 4, 3 and 2 states; a Lambda block whose dark
    state has eigenvalue 0, as its padding slot does; a 1-state block with a
    shift, and one at zero energy that is degenerate with its padding."""
    rng = np.random.default_rng(seed)
    sizes = np.array([4, 3, 2, 3, 1, 1])
    blocks = np.zeros((len(sizes), 4, 4), dtype=complex)
    weights = np.zeros((len(sizes), 4))
    for b, size in enumerate(sizes[:3]):
        a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        blocks[b, :size, :size] = a + a.conj().T
        weights[b, :size] = rng.integers(1, 4, size)
    blocks[3, :3, :3] = [[0.0, 0.0, 1.3], [0.0, 0.0, 0.7], [1.3, 0.7, -0.4]]
    weights[3, 2] = 1.0
    blocks[4, 0, 0] = -2.1
    weights[4, 0] = 2.0
    weights[5, 0] = 1.0
    return blocks, rng.uniform(0.5, 2.0, len(sizes)), weights, sizes


@pytest.mark.parametrize("seed", range(5))
def test_dwell_operators_match_quadrature(seed):
    # D = int_0^T U(t)^dag W U(t) dt by 64-point Gauss-Legendre, with U(t)
    # from the Pade path, so no eigh enters the reference
    blocks, durations, weights, sizes = padded_dwell_blocks(seed)
    nodes, quadrature = np.polynomial.legendre.leggauss(64)
    t = 0.5 * durations[:, None] * (nodes + 1.0)
    u = qcore.pade_expm(-1j * blocks[:, None] * t[..., None, None])
    integrand = u.conj().swapaxes(-1, -2) @ (weights[:, None, :, None] * u)
    expected = np.einsum("bq,bqjk->bjk", 0.5 * durations[:, None] * quadrature, integrand)
    scale = (durations * weights.max(axis=1))[:, None, None]
    padding = np.arange(4) >= sizes[:, None]
    edge = padding[:, :, None] | padding[:, None, :]
    operators = []
    for eigh in (np.linalg.eigh, mixing_degenerate_eigenvectors(np.linalg.eigh)):
        d = _dwell_operators(*eigh(blocks), durations, weights)
        assert np.all(np.abs(d - expected) <= 1e-12 * scale)
        assert np.all(np.abs(d - d.conj().swapaxes(-1, -2)) <= 1e-15 * scale)
        assert np.all((np.abs(d) <= 1e-15 * scale)[edge])
        operators.append(d)
    # the operator does not depend on the eigenbasis inside a degenerate space
    assert np.all(np.abs(operators[0] - operators[1]) <= 4e-15 * scale)


@pytest.mark.parametrize("cc", ["physical", "none"])
@pytest.mark.parametrize("builder,params", GATES)
def test_segment_hamiltonians_vanish_off_the_sectors(builder, params, cc):
    schedule = builder(DRIVE)
    block_of = schedule_blocks(schedule)
    off_block = block_of[:, None] != block_of[None, :]
    for seg in schedule.segments:
        h = segment_hamiltonian(seg, params, cc_interaction=cc)
        assert np.count_nonzero(h[off_block]) == 0
