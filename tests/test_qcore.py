"""Tests for basis indexing and the dense linear-algebra kernel.

A basis state is addressed by its code string in base 3: ``int("220", 3)`` is
(r, r, g0).
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockadesim import qcore
from blockadesim.model import (
    PhysicalParams,
    PulseSegment,
    Transition,
    _interaction_matrix,
    computational_labels,
    segment_hamiltonian,
)
from blockadesim.schedule import DriveParams, cnot_schedule, deutsch_schedule, toffoli_schedule


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
    # a state's index is its code string read big-endian in base 3
    codes = [qcore.LEVEL_CODE[level] for level in levels]
    assert qcore.level_codes(len(levels))[:, index].tolist() == codes
    assert int("".join(map(str, codes)), 3) == index


@pytest.mark.parametrize("n_atoms", [2, 3])
def test_basis_index_roundtrip(n_atoms):
    codes = qcore.level_codes(n_atoms)
    assert codes.shape == (n_atoms, 3**n_atoms)
    for index in range(3**n_atoms):
        assert int("".join(map(str, codes[:, index])), 3) == index


def test_computational_indices_order():
    assert list(qcore.computational_indices(3)) == [0, 1, 3, 4, 9, 10, 12, 13]
    assert list(qcore.computational_indices(2)) == [0, 1, 3, 4]
    assert computational_labels(2) == ["00", "01", "10", "11"]


DEUTSCH_COUPLINGS = frozenset({(0, "g0"), (1, "g0"), (2, "g0"), (2, "g1")})
CNOT_COUPLINGS = frozenset({(0, "g0"), (1, "g0"), (1, "g1")})


def sector_layout(n_atoms):
    return qcore.segment_layout(n_atoms, (DEUTSCH_COUPLINGS,))


def rydberg_weights(n_atoms):
    # one segment without couplings makes every basis state a block of its
    # own, so the table's weights are the Rydberg counts in basis order
    return qcore.segment_layout(n_atoms, (frozenset(),)).weights


def sector_blocks(layout, n_atoms):
    """Basis indices of each block in slot order: the slots of ``basis``
    that are not padding."""
    return [row[row < 3**n_atoms] for row in layout.basis]


def test_rydberg_weights():
    w = rydberg_weights(3)[:, 0]
    assert w[0] == 0
    assert w[int("210", 3)] == 1
    assert w[int("220", 3)] == 2
    assert w[26] == 3


def segment_couplings(schedule):
    return tuple(
        frozenset((tr.atom, tr.lower) for tr in seg.transitions) for seg in schedule.segments
    )


DRIVE = DriveParams.from_ratio(2.0 * math.pi * 10.0, 2.0 * math.pi * 0.54, 2.0)


def deutsch_segment_layout(n_atoms):
    return qcore.segment_layout(n_atoms, segment_couplings(deutsch_schedule(DRIVE)))


def interaction_matrix_physical(n_atoms):
    return _interaction_matrix(PhysicalParams(-633.0, 6.0, 1590.0, n_atoms), "physical")


@pytest.mark.parametrize(
    "table",
    [qcore.level_codes, qcore.computational_indices, rydberg_weights,
     qcore.coupling_indices, sector_layout, deutsch_segment_layout,
     interaction_matrix_physical],
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
    layout = qcore.segment_layout(n_atoms, (couplings,))
    dim = 3**n_atoms
    valid = layout.basis < dim
    # an operator that is nonzero exactly on the in-block entries, with the
    # zero padding state past the basis
    same_block = np.zeros((dim + 1, dim + 1), dtype=bool)
    for block in sector_blocks(layout, n_atoms):
        same_block[np.ix_(block, block)] = True
    full = np.where(same_block, 1.0 + np.arange((dim + 1) ** 2).reshape(dim + 1, dim + 1), 0.0)
    blocks = full.reshape(-1)[layout.index]
    back = np.zeros_like(full)
    back.reshape(-1)[layout.index] = blocks
    np.testing.assert_array_equal(back, full)
    # the in-block entries are gathered, every entry with a padding slot is 0
    in_block = valid[:, :, None] & valid[:, None, :]
    assert np.all(blocks[in_block] != 0) and np.all(blocks[~in_block] == 0)
    # each block fills its first slots, the rest is padding
    assert np.all(valid[:, :-1] >= valid[:, 1:])


@pytest.mark.parametrize(
    "n_atoms,couplings,sizes",
    [(3, DEUTSCH_COUPLINGS, [12, 6, 6, 3]), (2, CNOT_COUPLINGS, [6, 3]),
     (2, frozenset(), [1] * 9)],
)
def test_sectors_split_by_controls_in_g1(n_atoms, couplings, sizes):
    layout = qcore.segment_layout(n_atoms, (couplings,))
    blocks = sector_blocks(layout, n_atoms)
    assert [len(block) for block in blocks] == sizes
    assert sorted(np.concatenate(blocks)) == list(range(3**n_atoms))
    for block in blocks:
        assert np.all(np.diff(block) > 0)
    assert qcore.segment_layout(n_atoms, (couplings,)) is layout
    with pytest.raises(ValueError):
        layout.basis[0, 0] = 5


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
def test_sectors_are_the_connected_components_of_any_coupling_set(n_atoms):
    # reference: transitive closure of the coupling graph by repeated squaring
    dim = 3**n_atoms
    every = [(atom, lower) for atom in range(n_atoms) for lower in ("g0", "g1")]
    subsets = [
        frozenset(c for c, keep in zip(every, pick) if keep)
        for pick in itertools.product((False, True), repeat=len(every))
    ]
    for couplings in subsets:
        reach = np.eye(dim, dtype=bool)
        for atom, lower in couplings:
            rows, cols = qcore.coupling_indices(n_atoms)[atom, qcore.LEVEL_CODE[lower]]
            reach[rows, cols] = reach[cols, rows] = True
        for _ in range(dim.bit_length()):
            reach = (reach.astype(int) @ reach.astype(int)) > 0
        blocks = sector_blocks(qcore.segment_layout(n_atoms, (couplings,)), n_atoms)
        same_block = np.zeros((dim, dim), dtype=bool)
        for block in blocks:
            same_block[np.ix_(block, block)] = True
        assert np.array_equal(same_block, reach), sorted(couplings)
        # blocks come in the order of their first basis index
        assert np.all(np.diff([block[0] for block in blocks]) > 0), sorted(couplings)
    # several segments: each one's blocks are those of its own one-segment
    # layout, padded to the widest block, and its entries are offset into
    # its own slice of the segment stack
    rng = np.random.default_rng(n_atoms)
    for _ in range(40):
        picks = rng.integers(len(subsets), size=rng.integers(2, 6))
        segments = tuple(subsets[i] for i in picks)
        layout = qcore.segment_layout(n_atoms, segments)
        assert np.all(np.diff(layout.segment) >= 0)
        for s, couplings in enumerate(segments):
            own = qcore.segment_layout(n_atoms, (couplings,))
            mine = layout.segment == s
            m = own.basis.shape[1]
            np.testing.assert_array_equal(layout.basis[mine, :m], own.basis)
            assert np.all(layout.basis[mine, m:] == dim)
            np.testing.assert_array_equal(
                layout.index[mine, :m, :m], own.index + s * (dim + 1) ** 2
            )
            # the slots past the segment's own padded width point into the
            # padding row and column
            stack_shape = (len(segments), dim + 1, dim + 1)
            _, rows, cols = np.unravel_index(layout.index[mine], stack_shape)
            assert np.all(rows[:, m:] == dim) and np.all(cols[:, :, m:] == dim)


# (builder, register, blocks, padded size, block sizes of a control pulse in
# each target level); a target pulse gives one 3-state block per level pair
# of the controls
SEGMENT_STACKS = [
    (deutsch_schedule, 3, 51, 4, [4, 2, 2, 1]),
    (toffoli_schedule, 3, 33, 4, [4, 2, 2, 1]),
    (cnot_schedule, 2, 15, 3, [2, 1]),
]


@pytest.mark.parametrize("builder,n_atoms,n_blocks,m,control_sizes", SEGMENT_STACKS)
def test_segment_stack_block_sizes(builder, n_atoms, n_blocks, m, control_sizes):
    schedule = builder(DRIVE)
    layout = qcore.segment_layout(n_atoms, segment_couplings(schedule))
    assert layout.index.shape == (n_blocks, m, m)
    valid = layout.basis < 3**n_atoms
    sizes = valid.sum(axis=1)
    target_level = layout.basis[:, 0] % 3
    assert np.all(np.diff(layout.segment) >= 0)
    for s, seg in enumerate(schedule.segments):
        mine = layout.segment == s
        # each segment's blocks hold every basis state once
        assert sorted(layout.basis[mine][valid[mine]]) == list(range(3**n_atoms))
        if {tr.atom for tr in seg.transitions} == {n_atoms - 1}:
            assert sizes[mine].tolist() == [3] * 3 ** (n_atoms - 1)
            continue
        for level in range(3):
            in_level = mine & (target_level == level)
            assert sorted(sizes[in_level], reverse=True) == control_sizes
            assert np.all((layout.basis[in_level] % 3 == level)[valid[in_level]])


@pytest.mark.parametrize("builder,n_atoms", [row[:2] for row in SEGMENT_STACKS])
def test_segment_stack_gathers_and_scatters_every_segment_hamiltonian(builder, n_atoms):
    schedule = builder(DRIVE)
    params = PhysicalParams(-633.0, 6.0, 1590.0, n_atoms)
    layout = qcore.segment_layout(n_atoms, segment_couplings(schedule))
    dim = 3**n_atoms
    # the segment Hamiltonians with a zero padding state past the basis
    stack = np.zeros((len(schedule.segments), dim + 1, dim + 1), dtype=complex)
    for s, seg in enumerate(schedule.segments):
        stack[s, :dim, :dim] = segment_hamiltonian(seg, params)
    blocks = np.take(stack, layout.index)
    back = np.zeros_like(stack)
    np.put(back, layout.index, blocks)
    np.testing.assert_array_equal(back, stack)
    # every entry is in its block's segment, and each real entry between
    # its block's own slots
    valid = layout.basis < dim
    in_block = valid[:, :, None] & valid[:, None, :]
    segment, rows, cols = np.unravel_index(layout.index, stack.shape)
    assert np.all(segment == layout.segment[:, None, None])
    block, j, k = np.nonzero(in_block)
    np.testing.assert_array_equal(rows[in_block], layout.basis[block, j])
    np.testing.assert_array_equal(cols[in_block], layout.basis[block, k])
    # an entry with a padding slot lands in the padding row or column
    assert np.all((rows == dim) == ~valid[:, :, None])
    assert np.all((cols == dim) == ~valid[:, None, :])
    # padding slots: the state past the basis, no weight
    assert np.all(layout.basis[~valid] == dim)
    assert np.all(layout.weights[~valid] == 0)
    in_r = qcore.level_codes(n_atoms) == qcore.LEVEL_CODE["r"]
    np.testing.assert_array_equal(layout.weights[valid], in_r.sum(axis=0)[layout.basis[valid]])


@pytest.mark.parametrize(
    "builder,n_atoms,n_blocks,n_classes",
    [(deutsch_schedule, 3, 51, 28), (toffoli_schedule, 3, 33, 20), (cnot_schedule, 2, 15, 10)],
)
def test_segment_stack_classes(builder, n_atoms, n_blocks, n_classes):
    layout = qcore.segment_layout(n_atoms, segment_couplings(builder(DRIVE)))
    assert layout.block_class.shape == (n_blocks,)
    assert layout.representative.shape == (n_classes,)
    # each class is represented by its first block, in block order
    np.testing.assert_array_equal(layout.block_class[layout.representative], np.arange(n_classes))
    first = [np.flatnonzero(layout.block_class == c)[0] for c in range(n_classes)]
    np.testing.assert_array_equal(layout.representative, first)


COUPLING_SETS = st.lists(
    st.frozensets(st.tuples(st.integers(0, 2), st.sampled_from(["g0", "g1"]))),
    min_size=1, max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(
    n_atoms=st.sampled_from([2, 3]),
    couplings=COUPLING_SETS,
    c6=st.floats(1.0, 1e3) | st.floats(-1e3, -1.0),
    spacing=st.floats(2.0, 12.0),
    cc=st.sampled_from(["physical", "none"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocks_of_one_class_are_equal(n_atoms, couplings, c6, spacing, cc, seed):
    # the premise of exponentiating one block per class: for any couplings
    # and parameters, the blocks of a class carry the same entries, weights
    # and segment
    couplings = tuple(
        frozenset((atom, lower) for atom, lower in c if atom < n_atoms) for c in couplings
    )
    rng = np.random.default_rng(seed)
    params = PhysicalParams(c6, spacing, 1590.0, n_atoms)
    layout = qcore.segment_layout(n_atoms, couplings)
    dim = 3**n_atoms
    stack = np.zeros((len(couplings), dim + 1, dim + 1), dtype=complex)
    for s, coupling in enumerate(couplings):
        k = len(coupling)
        rabi = rng.uniform(0.1, 100.0, k) * np.exp(2j * np.pi * rng.random(k))
        transitions = [Transition(a, lower, w) for (a, lower), w in zip(sorted(coupling), rabi)]
        segment = PulseSegment(tuple(transitions), 1.0)
        stack[s, :dim, :dim] = segment_hamiltonian(segment, params, cc_interaction=cc)
    blocks = stack.reshape(-1)[layout.index]
    n_classes = len(layout.representative)
    np.testing.assert_array_equal(layout.block_class[layout.representative], np.arange(n_classes))
    rep = layout.representative[layout.block_class]
    np.testing.assert_array_equal(blocks, blocks[rep])
    np.testing.assert_array_equal(layout.weights, layout.weights[rep])
    np.testing.assert_array_equal(layout.segment, layout.segment[rep])


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
    g0, r = int("0", 3), int("2", 3)
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
    for hermitian in (True, False):
        # eigh and the Pade solve would raise on their own terms, or not at all
        for shape in ((2, 3), (3,)):
            with pytest.raises(ValueError, match="expected square matrices"):
                qcore.matrix_exponential(np.zeros(shape), 1.0, hermitian=hermitian)
        # more durations than matrices: without the broadcast to the stack's
        # leading shape one matrix would come back as a stack of two
        with pytest.raises(ValueError):
            qcore.matrix_exponential(np.eye(3), [1.0, 2.0], hermitian=hermitian)
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


@pytest.mark.parametrize("shape", [(5, 4, 12, 12), (3, 6, 6), (4, 4, 4)])
def test_is_hermitian_checks_each_matrix_of_a_stack(shape):
    # an (m, m, m) array must not be transposed across the stack axis
    rng = np.random.default_rng(len(shape))
    raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    stack = raw + raw.conj().swapaxes(-1, -2)
    assert qcore.is_hermitian(stack)
    perturbed = stack.copy()
    perturbed[(-1,) * (len(shape) - 2) + (0, 1)] += 1e-6
    assert not qcore.is_hermitian(perturbed)
    # a[i, j, k] = i + 10 j + k equals its full axis reversal, but no slice
    # a[i] is symmetric
    i, j, k = np.indices((4, 4, 4))
    assert not qcore.is_hermitian(i + 10.0 * j + k)


@pytest.mark.parametrize("hermitian", [True, False])
def test_matrix_exponential_checks_the_phase_of_each_matrix(hermitian):
    # max|H| is 1 rad/us in every matrix; only the last one's duration is over
    h = np.zeros((3, 2, 2), dtype=complex)
    h[:, 0, 1] = h[:, 1, 0] = 1.0
    durations = np.array([1.0, qcore.MAX_SEGMENT_PHASE, 2.0 * qcore.MAX_SEGMENT_PHASE])
    with pytest.raises(ValueError, match="max\\|H\\|"):
        qcore.matrix_exponential(h, durations, hermitian=hermitian)
    assert qcore.matrix_exponential(h[:2], durations[:2], hermitian=hermitian).shape == (2, 2, 2)
    # so is a larger entry in one matrix of a stack with shared durations
    h[1, 0, 0] = 1e13
    with pytest.raises(ValueError, match="max\\|H\\|"):
        qcore.matrix_exponential(h[:2], 1.0, hermitian=hermitian)


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
