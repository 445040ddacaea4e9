"""Tests for ideal gate matrices and fidelity metrics."""

import math

import numpy as np
import pytest
from scipy.stats import unitary_group

from blockadesim.ideal import cnot_ideal, deutsch_ideal, gate_fidelity, toffoli_ideal
from blockadesim.qcore import unitarity_defect


def test_deutsch_at_pi_over_two_equals_toffoli():
    np.testing.assert_allclose(
        deutsch_ideal(math.pi / 2.0), toffoli_ideal(), atol=1e-15
    )


def test_deutsch_block_entries():
    gate = deutsch_ideal(math.asin(7.0 / 25.0))
    np.testing.assert_allclose(gate[:6, :6], np.eye(6), atol=0)
    np.testing.assert_allclose(gate[6, 6], 24.0j / 25.0, atol=1e-12)
    np.testing.assert_allclose(gate[7, 7], 24.0j / 25.0, atol=1e-12)
    np.testing.assert_allclose(gate[6, 7], 7.0 / 25.0, atol=1e-12)
    np.testing.assert_allclose(gate[7, 6], 7.0 / 25.0, atol=1e-12)
    assert np.all(gate[:6, 6:] == 0.0)
    assert np.all(gate[6:, :6] == 0.0)


def test_deutsch_unitary_for_random_angles():
    rng = np.random.default_rng(2024)
    for theta in rng.uniform(0.0, math.pi, 100):
        assert unitarity_defect(deutsch_ideal(theta)) < 1e-12


def test_deutsch_rejects_out_of_range_angle():
    with pytest.raises(ValueError):
        deutsch_ideal(-0.001)
    with pytest.raises(ValueError):
        deutsch_ideal(math.pi + 0.001)


def test_toffoli_squares_to_identity():
    t = toffoli_ideal()
    np.testing.assert_allclose(t @ t, np.eye(8), atol=0)


def test_cnot_swaps_target_conditioned_on_control():
    c = cnot_ideal()
    basis = np.eye(4)
    np.testing.assert_array_equal(c @ basis[:, 2], basis[:, 3])
    np.testing.assert_array_equal(c @ basis[:, 3], basis[:, 2])
    np.testing.assert_array_equal(c @ basis[:, 0], basis[:, 0])


@pytest.mark.parametrize("mode", ["trace", "state_average"])
def test_fidelity_self_and_global_phase(mode):
    rng = np.random.default_rng(9)
    u = unitary_group.rvs(8, random_state=rng)
    assert gate_fidelity(u, u, mode=mode) == pytest.approx(1.0, abs=1e-12)
    assert gate_fidelity(np.exp(0.7j) * u, u, mode=mode) == pytest.approx(
        1.0, abs=1e-12
    )


def test_fidelity_trace_identity_vs_cnot():
    assert gate_fidelity(np.eye(4), cnot_ideal(), mode="trace") == pytest.approx(0.5)


@pytest.mark.parametrize("mode", ["trace", "state_average"])
def test_fidelity_detects_small_unitary_perturbation(mode):
    u = deutsch_ideal(1.0)
    rotation = np.eye(8, dtype=complex)
    c, s = math.cos(1e-3), math.sin(1e-3)
    rotation[5, 5] = rotation[6, 6] = c
    rotation[5, 6], rotation[6, 5] = s, -s
    assert gate_fidelity(rotation @ u, u, mode=mode) < 1.0


@pytest.mark.parametrize("mode", ["trace", "state_average"])
def test_fidelity_detects_damped_entry(mode):
    # leakage shows up as a sub-unit column norm
    u = deutsch_ideal(1.0)
    damped = u.copy()
    damped[:, 6] *= 1.0 - 1e-3
    assert gate_fidelity(damped, u, mode=mode) < 1.0


def test_fidelity_input_validation():
    with pytest.raises(ValueError):
        gate_fidelity(np.eye(4), np.eye(8))
    # the overlap of (8, 8) with (8, 4) has a (4, 8) shape, whose diagonal
    # would average to a number
    with pytest.raises(ValueError, match=r"shape mismatch: \(8, 8\) vs \(8, 4\)"):
        gate_fidelity(np.eye(8), np.eye(8)[:, :4])
    with pytest.raises(ValueError):
        gate_fidelity(np.eye(4), np.eye(4), mode="hilbert")
