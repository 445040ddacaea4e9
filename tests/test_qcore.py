"""Tests for basis indexing and the dense linear-algebra kernel."""

import itertools
import math

import numpy as np
import pytest

from blockadesim import qcore
from blockadesim.model import PhysicalParams, interaction_diagonal


def two_level_rabi(omega, t):
    """Closed-form single-atom propagator on the {g0, r} block."""
    u = np.eye(3, dtype=complex)
    c, s = math.cos(omega * t / 2.0), math.sin(omega * t / 2.0)
    u[0, 0] = u[2, 2] = c
    u[0, 2] = u[2, 0] = -1j * s
    return u


@pytest.mark.parametrize(
    "levels,index",
    [
        (("g0", "g0", "g0"), 0),
        (("g0", "g0", "g1"), 1),
        (("r", "r", "g1"), 25),
        (("r", "r", "r"), 26),
        (("g1", "g1", "g0"), 12),
        (("g0", "g1"), 1),
        (("r", "g0"), 6),
    ],
)
def test_basis_index_examples(levels, index):
    assert qcore.basis_index(levels) == index


@pytest.mark.parametrize("n_atoms", [2, 3])
def test_basis_index_roundtrip(n_atoms):
    codes = qcore.level_codes(n_atoms)
    assert codes.shape == (n_atoms, 3**n_atoms)
    seen = set()
    for index in range(3**n_atoms):
        levels = tuple(qcore.LEVELS[c] for c in codes[:, index])
        assert qcore.basis_index(levels) == index
        seen.add(levels)
    assert len(seen) == 3**n_atoms


def test_basis_index_rejects_unknown_level():
    with pytest.raises(ValueError):
        qcore.basis_index(("g0", "g2", "r"))


def test_computational_indices_order():
    assert list(qcore.computational_indices(3)) == [0, 1, 3, 4, 9, 10, 12, 13]
    assert list(qcore.computational_indices(2)) == [0, 1, 3, 4]
    assert qcore.computational_labels(2) == ["00", "01", "10", "11"]


def test_rydberg_weights():
    w = qcore.rydberg_weights(3)
    assert w[0] == 0
    assert w[qcore.basis_index(("r", "g1", "g0"))] == 1
    assert w[qcore.basis_index(("r", "r", "g0"))] == 2
    assert w[26] == 3


DEUTSCH_COUPLINGS = frozenset({(0, "g0"), (1, "g0"), (2, "g0"), (2, "g1")})
CNOT_COUPLINGS = frozenset({(0, "g0"), (1, "g0"), (1, "g1")})


def sector_layout(n_atoms):
    return qcore.sector_layout(n_atoms, DEUTSCH_COUPLINGS)


def interaction_diagonal_physical(n_atoms):
    return interaction_diagonal(PhysicalParams(-633.0, 6.0, 1590.0, n_atoms), "physical")


@pytest.mark.parametrize(
    "table",
    [qcore.level_codes, qcore.computational_indices, qcore.rydberg_weights,
     qcore.coupling_indices, sector_layout, interaction_diagonal_physical],
)
def test_register_tables_are_cached_and_read_only(table):
    assert table(3) is table(3)
    arrays = table(3) if isinstance(table(3), tuple) else (table(3),)
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 5


@pytest.mark.parametrize(
    "n_atoms,couplings", [(3, DEUTSCH_COUPLINGS), (2, CNOT_COUPLINGS), (3, frozenset())]
)
def test_sector_layout_gathers_and_scatters_the_blocks(n_atoms, couplings):
    index, valid = qcore.sectors(n_atoms, couplings)
    layout = qcore.sector_layout(n_atoms, couplings)
    dim = 3**n_atoms
    # an operator that is nonzero exactly on the in-block entries
    block_of = np.empty(dim, dtype=int)
    block_of[index[valid]] = np.nonzero(valid)[0]
    same_block = block_of[:, None] == block_of[None, :]
    full = np.where(same_block, 1.0 + np.arange(dim * dim).reshape(dim, dim), 0.0)
    blocks = np.zeros(layout.pairs.shape)
    blocks[layout.pairs] = full[layout.rows, layout.cols]
    back = np.zeros_like(full)
    back[layout.rows, layout.cols] = blocks[layout.pairs]
    np.testing.assert_array_equal(back, full)
    flat = np.zeros(valid.size)
    flat[layout.slot] = np.arange(dim)
    np.testing.assert_array_equal(flat.reshape(valid.shape)[valid], index[valid])
    np.testing.assert_array_equal(
        layout.weights.ravel()[layout.slot], qcore.rydberg_weights(n_atoms)
    )


@pytest.mark.parametrize(
    "n_atoms,couplings,sizes",
    [(3, DEUTSCH_COUPLINGS, [12, 6, 6, 3]), (2, CNOT_COUPLINGS, [6, 3]),
     (2, frozenset(), [1] * 9)],
)
def test_sectors_split_by_controls_in_g1(n_atoms, couplings, sizes):
    index, valid = qcore.sectors(n_atoms, couplings)
    assert valid.sum(axis=1).tolist() == sizes
    members = index[valid]
    assert sorted(members) == list(range(3**n_atoms))
    for row, mask in zip(index, valid):
        assert np.all(np.diff(row[mask]) > 0)
        assert np.all(row[~mask] == 0)
    assert qcore.sectors(n_atoms, couplings)[0] is index
    with pytest.raises(ValueError):
        index[0, 0] = 5


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
def test_sectors_are_the_connected_components_of_any_coupling_set(n_atoms):
    # reference: transitive closure of the coupling graph by repeated squaring
    dim = 3**n_atoms
    every = [(atom, lower) for atom in range(n_atoms) for lower in ("g0", "g1")]
    for pick in itertools.product((False, True), repeat=len(every)):
        couplings = frozenset(c for c, keep in zip(every, pick) if keep)
        reach = np.eye(dim, dtype=bool)
        for atom, lower in couplings:
            rows, cols = qcore.coupling_indices(n_atoms)[atom, qcore.LEVEL_CODE[lower]]
            reach[rows, cols] = reach[cols, rows] = True
        for _ in range(dim.bit_length()):
            reach = (reach.astype(int) @ reach.astype(int)) > 0
        index, valid = qcore.sectors(n_atoms, couplings)
        same_block = np.zeros((dim, dim), dtype=bool)
        for row, mask in zip(index, valid):
            same_block[np.ix_(row[mask], row[mask])] = True
        assert np.array_equal(same_block, reach), sorted(couplings)
        # blocks come in the order of their first basis index
        assert np.all(np.diff(index[:, 0]) > 0), sorted(couplings)


def test_matrix_exponential_requires_the_hermitian_keyword():
    with pytest.raises(TypeError):
        qcore.matrix_exponential(np.eye(2), 1.0)


@pytest.mark.parametrize("hermitian", [True, False])
def test_matrix_exponential_stack_matches_one_call_per_matrix(hermitian):
    # scales from 0 to 40 and durations up to 75 us give each matrix its own
    # number of squarings
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(3, 4, 6, 6)) + 1j * rng.normal(size=(3, 4, 6, 6))
    h = (raw + raw.conj().swapaxes(-1, -2)) / 2.0
    if not hermitian:
        h = h - 0.5j * np.eye(6) * rng.uniform(0.0, 0.2, size=(3, 4, 6, 1))
    h *= np.array([0.0, 1e-3, 0.7, 40.0])[:, None, None]
    durations = np.array([[0.05], [1.3], [75.0]])
    stack = qcore.matrix_exponential(h, durations, hermitian=hermitian)
    assert stack.shape == h.shape
    # a caller's own decomposition gives the same result to the bit, and
    # only the Hermitian path takes one
    eig = np.linalg.eigh(h)
    if hermitian:
        np.testing.assert_array_equal(
            qcore.matrix_exponential(h, durations, hermitian=True, eig=eig), stack
        )
    else:
        with pytest.raises(ValueError, match="eig"):
            qcore.matrix_exponential(h, durations, hermitian=False, eig=eig)
    for i in range(3):
        for j in range(4):
            one = qcore.matrix_exponential(h[i, j], durations[i, 0], hermitian=hermitian)
            assert np.abs(stack[i, j] - one).max() < 1e-13


def test_matrix_exponential_zero_hamiltonian():
    u = qcore.matrix_exponential(np.zeros((5, 5)), 3.7, hermitian=True)
    np.testing.assert_allclose(u, np.eye(5), atol=1e-14)


def test_matrix_exponential_pi_pulse():
    # pi pulse maps g0 -> -i r
    omega = 2.0 * math.pi * 10.0
    h = np.zeros((3, 3), dtype=complex)
    h[0, 2] = h[2, 0] = omega / 2.0
    u = qcore.matrix_exponential(h, math.pi / omega, hermitian=True)
    g0, r = qcore.basis_index(("g0",)), qcore.basis_index(("r",))
    expected = np.zeros(3, dtype=complex)
    expected[r] = -1j
    np.testing.assert_allclose(u[:, g0], expected, atol=1e-12)


@pytest.mark.parametrize("t", [0.0, 0.013, 0.05, 0.21])
def test_matrix_exponential_matches_rabi_closed_form(t):
    omega = 2.0 * math.pi * 4.0
    h = np.zeros((3, 3), dtype=complex)
    h[0, 2] = h[2, 0] = omega / 2.0
    np.testing.assert_allclose(
        qcore.matrix_exponential(h, t, hermitian=True), two_level_rabi(omega, t), atol=1e-12
    )


def test_matrix_exponential_unitarity_random_hermitian():
    rng = np.random.default_rng(42)
    raw = rng.normal(size=(27, 27)) + 1j * rng.normal(size=(27, 27))
    h = (raw + raw.conj().T) / 2.0
    u = qcore.matrix_exponential(h, 1.0, hermitian=True)
    assert qcore.unitarity_defect(u) < 1e-10


def test_matrix_exponential_group_property():
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    h = (raw + raw.conj().T) / 2.0
    t1, t2 = 0.4, 1.3
    u12 = qcore.matrix_exponential(h, t1 + t2, hermitian=True)
    product = qcore.matrix_exponential(h, t2, hermitian=True) @ qcore.matrix_exponential(
        h, t1, hermitian=True
    )
    assert np.abs(u12 - product).max() < 1e-10


def test_matrix_exponential_inverse_property():
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = (raw + raw.conj().T) / 2.0
    forward = qcore.matrix_exponential(h, 0.9, hermitian=True)
    backward = qcore.matrix_exponential(-h, 0.9, hermitian=True)  # exp(+iHt)
    assert np.abs(forward @ backward - np.eye(6)).max() < 1e-10


def test_matrix_exponential_non_hermitian_contracts():
    h = np.diag([0.0, 0.0, -0.5j])  # decay on the top level
    u = qcore.matrix_exponential(h, 2.0, hermitian=False)
    norms = np.linalg.norm(u, axis=0)
    assert np.all(norms <= 1.0 + 1e-12)
    assert norms[2] < 1.0


def test_pade_expm_exact_cases():
    assert np.abs(qcore.pade_expm(np.zeros((4, 4), dtype=complex)) - np.eye(4)).max() < 1e-15
    diag = np.array([0.3, -2.0 + 1.5j, 40.0j, -700.0])
    assert np.allclose(qcore.pade_expm(np.diag(diag)), np.diag(np.exp(diag)), rtol=1e-12, atol=0)
    # a Jordan block has no eigenbasis: exp = e^lam [[1, t], [0, 1]]
    lam, t = -0.4 + 3.0j, 25.0
    jordan = np.array([[lam * t, t], [0.0, lam * t]])
    expected = np.exp(lam * t) * np.array([[1.0, t], [0.0, 1.0]])
    assert np.allclose(qcore.pade_expm(jordan), expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("dim", [2, 9, 27])
def test_pade_expm_matches_scipy_on_decaying_hamiltonians(dim):
    from scipy.linalg import expm

    rng = np.random.default_rng(dim)
    for scale in (1e-3, 0.5, 5.0, 80.0, 3e3):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (a + a.conj().T) / 2.0 - 0.5j * np.diag(rng.uniform(0.0, 0.2, dim))
        h *= scale / np.abs(h).sum(axis=0).max()
        u = qcore.matrix_exponential(h, 1.0, hermitian=False)
        assert np.abs(u - expm(-1j * h)).max() < 1e-11


def test_matrix_exponential_rejects_bad_input():
    with pytest.raises(ValueError):
        qcore.matrix_exponential(np.eye(3), -0.1, hermitian=True)
    with pytest.raises(FloatingPointError):
        qcore.matrix_exponential(np.array([[np.nan, 0], [0, 1]]), 1.0, hermitian=True)
    with pytest.raises(ValueError):
        qcore.matrix_exponential(np.zeros((2, 3)), 1.0, hermitian=True)
    with pytest.raises(ValueError):
        qcore.matrix_exponential(np.zeros((2, 3, 3)), [1.0, np.inf], hermitian=True)
    with pytest.raises(ValueError):
        qcore.matrix_exponential(np.zeros((2, 3, 3)), [1.0, 2.0, 3.0], hermitian=False)
    # a caller's decomposition skips none of the checks
    eig = np.linalg.eigh(np.eye(2))
    with pytest.raises(FloatingPointError):
        qcore.matrix_exponential(np.array([[np.nan, 0], [0, 1]]), 1.0, hermitian=True, eig=eig)
    with pytest.raises(ValueError):
        qcore.matrix_exponential(np.eye(2), np.nan, hermitian=True, eig=eig)
    with pytest.raises(ValueError, match="eig"):
        qcore.matrix_exponential(np.eye(3), 1.0, hermitian=True, eig=eig)


def test_hermitian_checks():
    h = np.array([[1.0, 1j], [-1j, 2.0]])
    assert qcore.is_hermitian(h)
    assert not qcore.is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_embedded_operators_commute_on_distinct_atoms():
    # couplings scattered onto the index tables act on one atom each
    rng = np.random.default_rng(5)
    couplings = qcore.coupling_indices(3)

    def coupling(atom, lower):
        op = np.zeros((27, 27), dtype=complex)
        rows, cols = couplings[atom, lower]
        op[rows, cols] = rng.normal() + 1j * rng.normal()
        op[cols, rows] = rng.normal() + 1j * rng.normal()
        return op

    for lower_a in (0, 1):
        for lower_b in (0, 1):
            a, b = coupling(0, lower_a), coupling(2, lower_b)
            assert np.abs(a @ b - b @ a).max() < 1e-12
    a, b = coupling(1, 0), coupling(1, 1)
    assert np.abs(a @ b - b @ a).max() > 1e-3
