"""Tests for the interaction model and segment Hamiltonians."""

import itertools
import math
from functools import reduce

import numpy as np
import pytest

from blockadesim import qcore
from blockadesim.model import (
    MAX_SEGMENT_PHASE,
    GateSchedule,
    PhysicalParams,
    PulseSegment,
    Transition,
    interaction_diagonal,
    segment_hamiltonian,
    vdw_shift,
)

TWO_PI = 2.0 * math.pi

REF_PARAMS = PhysicalParams(c6_over_2pi=-633.0, spacing=6.0, lifetime=1590.0, n_atoms=3)


def kron_embed(op, atom, n_atoms):
    """Single-atom 3x3 operator on ``atom``, identity on the others."""
    factors = [np.eye(3, dtype=complex)] * n_atoms
    factors[atom] = np.asarray(op, dtype=complex)
    return reduce(np.kron, factors)


def reference_hamiltonian(segment, params, cc_interaction):
    """Segment Hamiltonian built from Kronecker embeds, term by term."""
    n = params.n_atoms
    proj_r = np.zeros((3, 3))
    proj_r[2, 2] = 1.0
    pairs = [(0, 1, 1.0)] if n == 2 else [(0, 2, 1.0), (1, 2, 1.0)]
    if n == 3 and cc_interaction == "physical":
        pairs.append((0, 1, 2.0))
    h = np.zeros((3**n, 3**n), dtype=complex)
    for a, b, rel in pairs:
        shift = vdw_shift(params.c6_over_2pi, rel * params.spacing)
        h += shift * (kron_embed(proj_r, a, n) @ kron_embed(proj_r, b, n))
    for tr in segment.transitions:
        lower = qcore.LEVEL_CODE[tr.lower]
        op = np.zeros((3, 3), dtype=complex)
        op[2, lower] = tr.rabi / 2.0
        op[lower, 2] = np.conj(tr.rabi) / 2.0
        h += kron_embed(op, tr.atom, n)
    return h


def test_vdw_shift_reference_value():
    # -633 GHz um^6 at 6 um: -633000/6^6 MHz
    assert vdw_shift(-633.0, 6.0) / TWO_PI == pytest.approx(
        -633000.0 / 6.0**6, rel=1e-14
    )


def test_vdw_shift_doubled_distance_is_64x_weaker():
    assert vdw_shift(-633.0, 12.0) / TWO_PI == pytest.approx(
        -633000.0 / 6.0**6 / 64.0, rel=1e-14
    )


@pytest.mark.parametrize("c6,d", [(-633.0, 6.0), (-633.0, 3.7), (450.0, 5.1)])
def test_vdw_shift_scaling_ratio(c6, d):
    assert vdw_shift(c6, 2.0 * d) / vdw_shift(c6, d) == pytest.approx(
        1.0 / 64.0, rel=1e-12
    )


def test_vdw_shift_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        vdw_shift(-633.0, 0.0)
    with pytest.raises(ValueError):
        vdw_shift(-633.0, -1.0)


@pytest.mark.parametrize(
    "c6,d",
    [
        (-633.0, 1e60),  # d**6 overflows
        (-633.0, 1e-60),  # d**6 underflows to 0
        (-1e-10, 1e-52),  # d**6 is subnormal; the shift would be finite but inexact
        (-1e300, 1e-10),  # the shift overflows
    ],
)
def test_vdw_shift_rejects_results_outside_the_float_range(c6, d):
    with pytest.raises(ValueError):
        vdw_shift(c6, d)


def test_vdw_shift_monotone_in_distance():
    distances = np.linspace(3.0, 15.0, 40)
    shifts = [abs(vdw_shift(-633.0, d)) for d in distances]
    assert all(a > b for a, b in zip(shifts, shifts[1:]))


def test_physical_params_derived_shifts():
    v = REF_PARAMS.blockade
    assert v == pytest.approx(TWO_PI * -633000.0 / 6.0**6, rel=1e-14)
    assert REF_PARAMS.control_residue == pytest.approx(v / 64.0, rel=1e-14)
    two_atom = PhysicalParams(-633.0, 6.0, 1590.0, n_atoms=2)
    assert two_atom.control_residue == 0.0


def test_physical_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(-633.0, 0.0, 1590.0)
    with pytest.raises(ValueError):
        PhysicalParams(-633.0, 6.0, -1.0)
    with pytest.raises(ValueError):
        PhysicalParams(-633.0, 6.0, 1590.0, n_atoms=4)


def test_interaction_operator_diagonals():
    # the interaction operator is diagonal and real: one shift per basis state
    diag = interaction_diagonal(REF_PARAMS)
    v = REF_PARAMS.blockade
    assert diag.shape == (27,)
    assert diag.dtype == np.float64
    # both controls excited: residue only
    assert diag[qcore.basis_index(("r", "r", "g0"))] == pytest.approx(v / 64.0)
    assert diag[qcore.basis_index(("r", "r", "g1"))] == pytest.approx(v / 64.0)
    # one control plus target: full blockade shift
    assert diag[qcore.basis_index(("r", "g1", "r"))] == pytest.approx(v)
    assert diag[qcore.basis_index(("g1", "r", "r"))] == pytest.approx(v)
    # all three excited
    assert diag[qcore.basis_index(("r", "r", "r"))] == pytest.approx(
        2.0 * v + v / 64.0
    )
    # at most one excited atom: no shift
    for levels in (("g0", "g0", "g0"), ("g1", "g1", "r"), ("r", "g0", "g1")):
        assert diag[qcore.basis_index(levels)] == 0.0


def test_interaction_operator_without_control_residue():
    diag = interaction_diagonal(REF_PARAMS, cc_interaction="none")
    v = REF_PARAMS.blockade
    assert diag[qcore.basis_index(("r", "r", "g0"))] == 0.0
    assert diag[qcore.basis_index(("r", "r", "r"))] == pytest.approx(2.0 * v)
    with pytest.raises(ValueError):
        interaction_diagonal(REF_PARAMS, cc_interaction="off")


def test_interaction_operator_two_atoms():
    params = PhysicalParams(-633.0, 6.0, 1590.0, n_atoms=2)
    diag = interaction_diagonal(params)
    assert diag[qcore.basis_index(("r", "r"))] == pytest.approx(params.blockade)
    assert diag[qcore.basis_index(("r", "g1"))] == 0.0


def test_segment_hamiltonian_empty_is_interaction_only():
    segment = PulseSegment((), 1.0)
    h = segment_hamiltonian(segment, REF_PARAMS)
    np.testing.assert_array_equal(h, np.diag(interaction_diagonal(REF_PARAMS)))


def test_segment_hamiltonian_lambda_block():
    # target driven on both legs: restriction to {|110>, |111>, |11r>}
    omega1, omega2 = 1.5, 3.0
    segment = PulseSegment(
        (Transition(2, "g0", omega1), Transition(2, "g1", 1j * omega2)), 1.0
    )
    h = segment_hamiltonian(segment, REF_PARAMS)
    idx = [qcore.basis_index(("g1", "g1", lev)) for lev in ("g0", "g1", "r")]
    block = h[np.ix_(idx, idx)]
    expected = np.array(
        [
            [0.0, 0.0, omega1 / 2.0],
            [0.0, 0.0, -1j * omega2 / 2.0],
            [omega1 / 2.0, 1j * omega2 / 2.0, 0.0],
        ]
    )
    np.testing.assert_allclose(block, expected, atol=1e-15)


def test_segment_hamiltonian_is_hermitian():
    segment = PulseSegment(
        (Transition(0, "g0", 2.0 - 1.0j), Transition(2, "g1", 0.5j)), 0.3
    )
    h = segment_hamiltonian(segment, REF_PARAMS)
    assert qcore.is_hermitian(h)


def test_segment_hamiltonian_rejects_out_of_register_atom():
    params = PhysicalParams(-633.0, 6.0, 1590.0, n_atoms=2)
    segment = PulseSegment((Transition(2, "g0", 1.0),), 1.0)
    with pytest.raises(ValueError):
        segment_hamiltonian(segment, params)


@pytest.mark.parametrize("cc_interaction", ["physical", "none"])
@pytest.mark.parametrize("n_atoms", [2, 3])
def test_segment_hamiltonian_matches_kron_reference(n_atoms, cc_interaction):
    params = PhysicalParams(-633.0, 6.0, 1590.0, n_atoms=n_atoms)
    rng = np.random.default_rng(10 * n_atoms + len(cc_interaction))
    couplings = [(atom, lower) for atom in range(n_atoms) for lower in ("g0", "g1")]
    cases = 0
    for size in range(1, len(couplings) + 1):
        for subset in itertools.combinations(couplings, size):
            rabis = TWO_PI * 10.0 * (rng.normal(size=size) + 1j * rng.normal(size=size))
            segment = PulseSegment(
                tuple(Transition(a, lev, w) for (a, lev), w in zip(subset, rabis)), 0.3
            )
            np.testing.assert_array_equal(
                segment_hamiltonian(segment, params, cc_interaction=cc_interaction),
                reference_hamiltonian(segment, params, cc_interaction),
            )
            cases += 1
    assert cases == 2 ** len(couplings) - 1


def test_segment_phase_limit():
    # no interaction: max|H| is |rabi|/2 = 1 rad/us
    free = PhysicalParams(0.0, 6.0, 1590.0, n_atoms=2)
    drive = (Transition(0, "g0", 2.0),)
    segment_hamiltonian(PulseSegment(drive, MAX_SEGMENT_PHASE), free)
    with pytest.raises(ValueError, match="max\\|H\\|"):
        segment_hamiltonian(PulseSegment(drive, 2.0 * MAX_SEGMENT_PHASE), free)
    # a 1 nm spacing puts the blockade shift near 4e60 rad/us
    tiny = PhysicalParams(-633.0, 1e-9, 1590.0, n_atoms=3)
    with pytest.raises(ValueError, match="max\\|H\\|"):
        segment_hamiltonian(PulseSegment((), 1.0), tiny)
    # a control pi pulse at 1e300 MHz: max|H| * duration is pi/2
    omega = TWO_PI * 1e300
    pi_pulse = PulseSegment((Transition(0, "g1", omega),), math.pi / omega)
    segment_hamiltonian(pi_pulse, REF_PARAMS)
    # blockade-limit studies scale C6 by 1e3: about 3e5 rad over a 3.7 us pulse
    strong = REF_PARAMS.with_interaction_scaled(1e3)
    h = segment_hamiltonian(PulseSegment((Transition(2, "g0", 1.0),), 3.7), strong)
    assert 1e5 < np.abs(h).max() * 3.7 < MAX_SEGMENT_PHASE


def test_transition_validation():
    with pytest.raises(ValueError):
        Transition(0, "r", 1.0)
    with pytest.raises(ValueError):
        Transition(0, "g0", 0.0)
    with pytest.raises(ValueError):
        Transition(-1, "g0", 1.0)
    with pytest.raises(ValueError):
        Transition(0, "g0", complex("nan"))


def test_pulse_segment_validation():
    with pytest.raises(ValueError):
        PulseSegment((Transition(0, "g0", 1.0),), 0.0)
    with pytest.raises(ValueError):
        PulseSegment(
            (Transition(0, "g0", 1.0), Transition(0, "g0", 2.0)), 1.0
        )
    # same atom, different lower levels is fine
    PulseSegment((Transition(0, "g0", 1.0), Transition(0, "g1", 2.0)), 1.0)


def test_gate_schedule_validation_and_durations():
    seg = PulseSegment((Transition(0, "g0", 1.0),), 0.5)
    with pytest.raises(ValueError):
        GateSchedule((PulseSegment((Transition(2, "g0", 1.0),), 0.5),), "x", 2)
    schedule = GateSchedule((seg, seg, seg), "x", 2)
    assert schedule.total_duration == pytest.approx(1.5)
    assert schedule.interior_duration == pytest.approx(0.5)
    assert GateSchedule((seg, seg), "x", 2).interior_duration == 0.0
    assert GateSchedule((), "idle", 3).total_duration == 0.0
