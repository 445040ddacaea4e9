"""Dense complex linear algebra and product-basis indexing for registers of
three-level atoms.

The simulator's dense kernels live here, beside the segment layout and the
matrix exponential they serve: :func:`scatter` fills the full-space segment
matrices from per-class blocks, the inverse of the gather that
:class:`SegmentLayout` describes; :func:`chain` takes the running products of
the segment steps; :func:`dwell_operators` is Van Loan's integral of a
segment's exponential against its Rydberg weights.

Each atom has two ground levels ``g0``, ``g1`` and one Rydberg level ``r``.
Product states are indexed big-endian in base 3 with codes g0=0, g1=1, r=2:
a state's index is ``int`` of its code string in base 3, so (r, r, g0) is
``int("220", 3)`` = 24, a computational label such as "110" is its own code
string, and a three-atom register spans indices 0..26.  All angular
frequencies are rad/us and all times are us throughout the package.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .schedule import MAX_SEGMENT_PHASE

LEVEL_CODE = {"g0": 0, "g1": 1, "r": 2}

# Degree-13 diagonal Pade coefficients and the 1-norm up to which that
# approximant is exact to double precision (Higham 2005, SIAM J. Matrix
# Anal. Appl. 26, 1179).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
    16380.0, 182.0, 1.0,
)
_PADE13_NORM = 5.371920351148152

# Integer index tables of a register: each is computed once per register
# size and returned read-only, since every caller shares the same array.


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.cache
def level_codes(n_atoms: int) -> np.ndarray:
    """Level code of every atom (row) in every basis state (column)."""
    return _read_only(np.indices((3,) * n_atoms).reshape(n_atoms, -1))


@functools.cache
def computational_indices(n_atoms: int) -> np.ndarray:
    """Full-space indices of the computational (all-ground) basis states,
    in gate order."""
    in_ground = level_codes(n_atoms) != LEVEL_CODE["r"]
    return _read_only(np.flatnonzero(in_ground.all(axis=0)))


@functools.cache
def coupling_indices(n_atoms: int) -> np.ndarray:
    """Basis-index pairs that one ``|lower> <-> |r>`` coupling connects.

    ``coupling_indices(n)[atom, LEVEL_CODE[lower]]`` is ``(rows, cols)``:
    ``cols`` are the states with ``atom`` in ``lower``, and ``rows`` the same
    states with ``atom`` in ``r``, so the coupling's ``|r><lower|`` entries
    sit at ``[rows, cols]``.
    """
    codes = level_codes(n_atoms)
    table = np.empty((n_atoms, 2, 2, 3 ** (n_atoms - 1)), dtype=np.intp)
    for atom in range(n_atoms):
        stride = 3 ** (n_atoms - 1 - atom)
        for lower in (LEVEL_CODE["g0"], LEVEL_CODE["g1"]):
            cols = np.flatnonzero(codes[atom] == lower)
            table[atom, lower] = (cols + (LEVEL_CODE["r"] - lower) * stride, cols)
    return _read_only(table)


class SegmentLayout(NamedTuple):
    """How a schedule's segment Hamiltonians map onto one padded stack of the
    blocks that each segment's own couplings give.

    The full-space stack is ``(segments, 3**n + 1, 3**n + 1)``: one padding
    state ``3**n`` past the basis, whose row and column stay zero.  ``index``
    is the ``(n_blocks, m, m)`` flat index of each block entry into that
    stack, an entry with a padding slot pointing into the padding row or
    column, so ``blocks = stack.reshape(-1)[index]`` gathers and
    ``stack.reshape(-1)[index] = blocks`` scatters.  ``segment`` is the
    segment of each block, ``basis`` the ``(n_blocks, m)`` full-space basis
    index of each slot (``3**n`` in the padding) and ``weights`` its Rydberg
    count (0 in the padding).

    Blocks of one segment whose slots differ only in the ground level of
    atoms that the segment does not drive form one class: their entries,
    weights and durations are equal for any parameters.  ``representative``
    is the first block of each class, in block order, and ``block_class``
    the class of each block, so ``blocks[representative]`` holds every
    distinct block and ``per_class[block_class]`` expands a per-class stack
    back to every block.
    """

    index: np.ndarray
    segment: np.ndarray
    basis: np.ndarray
    weights: np.ndarray
    representative: np.ndarray
    block_class: np.ndarray


@functools.cache
def segment_layout(
    n_atoms: int, segment_couplings: tuple[frozenset[tuple[int, str]], ...]
) -> SegmentLayout:
    """The blocks of basis states that each segment's ``(atom, lower)``
    couplings join, in segment order and padded to the largest block size
    ``m`` of the schedule (1 without segments), and their classes, as a
    :class:`SegmentLayout` computed once per register size and tuple of
    coupling sets; every array is read-only.

    A coupling links ``|lower>`` and ``|r>`` of one atom and nothing else, and
    every other term of a segment Hamiltonian is diagonal, so the Hamiltonian
    is block-diagonal, and each block is a product of per-atom level groups:
    ``r`` with the lower levels coupled to it on that atom, and each uncoupled
    lower level on its own.  A segment's blocks are ordered by their smallest
    basis index, and each holds its basis indices in ascending order.  A pulse
    of the paper's protocols drives one atom, so a control pulse of a
    three-atom gate gives blocks of 4, 2, 2 and 1 states per target level, a
    target pulse nine blocks of 3.

    The diagonal of a segment Hamiltonian sees an atom's level only through
    whether it is ``r``, and each coupling puts the same ``rabi/2`` on every
    pair of states it links, so an atom the segment leaves alone gives equal
    blocks in ``g0`` and in ``g1``: those blocks share a class.  The Deutsch
    gate's 51 blocks fall into 28 classes, the Toffoli's 33 into 20 and the
    CNOT's 15 into 10.
    """
    dim = 3**n_atoms
    g0, r = LEVEL_CODE["g0"], LEVEL_CODE["r"]
    joined = np.zeros((len(segment_couplings), n_atoms, 3), dtype=bool)
    joined[..., r] = True
    for s, couplings in enumerate(segment_couplings):
        for atom, lower in couplings:
            joined[s, atom, LEVEL_CODE[lower]] = True
    place = 3 ** np.arange(n_atoms - 1, -1, -1)
    offset = dim * np.arange(len(segment_couplings))[:, None]

    def labels(lowest: np.ndarray) -> np.ndarray:
        # each basis state's index with every atom moved to ``lowest`` of its
        # level, offset by the segment
        return place @ lowest[:, np.arange(n_atoms)[:, None], level_codes(n_atoms)] + offset

    # a block's smallest basis index puts every atom at the lowest level of
    # its group, and that index labels each state of the block
    lowest = np.where(joined, joined.argmax(axis=-1)[..., None], np.arange(3))
    label = labels(lowest)
    first, block, sizes = np.unique(label, return_inverse=True, return_counts=True)
    valid = np.arange(sizes.max(initial=1)) < sizes[:, None]
    basis = np.full(valid.shape, dim)
    basis[valid] = np.argsort(block.ravel(), kind="stable") % dim
    segment = first // dim
    row = segment[:, None] * (dim + 1) + basis
    index = row[:, :, None] * (dim + 1) + basis[:, None, :]
    in_r = level_codes(n_atoms) == r
    weights = np.append(in_r.sum(axis=0), 0)[basis].astype(float)
    # the same label with the ground levels of every undriven atom merged
    driven = joined[..., :r].any(axis=-1, keepdims=True)
    kind = labels(np.where(driven, lowest, np.array([g0, g0, r])))
    _, representative, block_class = np.unique(
        kind.reshape(-1)[first], return_index=True, return_inverse=True
    )
    return SegmentLayout(*map(_read_only, (
        index, segment, basis, weights, representative, block_class
    )))


@functools.cache
def _identity(dim: int) -> np.ndarray:
    return _read_only(np.eye(dim, dtype=complex))


def scatter(per_class: np.ndarray, layout: SegmentLayout, shape: tuple[int, ...]) -> np.ndarray:
    """The full-space segment matrices that a stack of per-class blocks fills
    through ``layout``, in a zero stack of the padded ``shape`` ``(segments,
    3**n + 1, 3**n + 1)``: every block takes its class's entries, and the
    padding state is sliced off with whatever the blocks' padding slots
    write into its row and column."""
    full = np.zeros(shape, dtype=complex)
    full.reshape(-1)[layout.index] = per_class[layout.block_class]
    return full[:, :-1, :-1]


def chain(steps: np.ndarray) -> np.ndarray:
    """The ``len(steps) + 1`` running products of full-space segment steps
    from the identity on: ``products[k] = steps[k - 1] @ ... @ steps[0]`` is
    the propagator to the start of segment ``k``, and ``products[-1]`` the
    whole schedule's."""
    n_segments, dim = len(steps), steps.shape[-1]
    products = np.empty((n_segments + 1, dim, dim), dtype=complex)
    products[0] = _identity(dim)
    # the product to the end of the first segment is its step
    products[1:2] = steps[:1]
    for k in range(1, n_segments):
        np.matmul(steps[k], products[k], out=products[k + 1])
    return products


def is_hermitian(matrix: np.ndarray, tol: float = 1e-12) -> bool:
    """Whether the max-norm of M - M^dagger, relative to the matrix scale,
    is at most ``tol``."""
    matrix = np.asarray(matrix)
    scale = max(1.0, float(np.abs(matrix).max())) if matrix.size else 1.0
    return float(np.abs(matrix - matrix.conj().swapaxes(-1, -2)).max()) / scale <= tol


def unitarity_defect(matrix: np.ndarray) -> float:
    """Max-norm of U^dagger U - I."""
    matrix = np.asarray(matrix)
    eye = np.eye(matrix.shape[0])
    return float(np.abs(matrix.conj().T @ matrix - eye).max())


def matrix_exponential(
    hamiltonian: np.ndarray,
    duration: float | np.ndarray,
    *,
    hermitian: bool,
    eig: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Propagators exp(-i H t) for constant Hamiltonian segments.

    ``hamiltonian`` is one ``(m, m)`` matrix or a stack ``(..., m, m)``, and
    ``duration`` a scalar or an array that broadcasts against the stack's
    leading shape.  With ``hermitian`` the stack goes through one batched
    eigendecomposition, which is exact per segment; otherwise, as for the
    effective decay term, through one batched :func:`pade_expm`.  A caller
    that already holds ``np.linalg.eigh(hamiltonian)`` passes it as ``eig``
    (``hermitian`` only), and the result is the same to the bit.  Raises
    ``ValueError`` when ``max|H| * t`` of any matrix exceeds
    ``MAX_SEGMENT_PHASE``.
    """
    h = np.asarray(hamiltonian, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {h.shape}")
    t = np.asarray(duration, dtype=float)
    # NaN fails the first test
    if not ((t >= 0).all() and np.isfinite(t).all()):
        raise ValueError(f"durations must be finite and >= 0, got {duration}")
    if t.shape != h.shape[:-2]:
        t = np.broadcast_to(t, h.shape[:-2])
    scale = np.abs(h).max(axis=(-2, -1), initial=0.0)
    if not np.isfinite(scale).all():
        raise FloatingPointError("Hamiltonian contains non-finite entries")
    with np.errstate(over="ignore"):  # an overflow to inf fails the check
        phase = float((scale * t).max(initial=0.0))
    if phase > MAX_SEGMENT_PHASE:
        raise ValueError(
            f"segment phase max|H| * duration = {phase:.3g} rad exceeds "
            f"{MAX_SEGMENT_PHASE:.0e} rad; check the spacing, the drive amplitudes "
            "and the Rydberg lifetime tau"
        )
    if eig is not None and (not hermitian or eig[0].shape != h.shape[:-1]):
        raise ValueError("eig must be the eigendecomposition of a Hermitian stack")
    if hermitian:
        eigvals, eigvecs = np.linalg.eigh(h) if eig is None else eig
        phases = np.exp(-1j * eigvals * t[..., None])
        u = (eigvecs * phases[..., None, :]) @ eigvecs.conj().swapaxes(-1, -2)
    else:
        u = pade_expm(-1j * t[..., None, None] * h)
    if not np.isfinite(u).all():
        raise FloatingPointError("propagator contains non-finite entries")
    return u


def dwell_operators(
    eigvals: np.ndarray, eigvecs: np.ndarray, durations: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Each block's dwell operator ``D = int_0^T U(t)^dag W U(t) dt``, whose
    expectation in a state at its segment's start is that state's Rydberg
    dwell over the segment (Van Loan, IEEE Trans. Autom. Control 23, 395
    (1978)).

    ``eigvals`` and ``eigvecs`` decompose the ``(n_classes, m, m)`` stack of
    distinct Hermitian blocks, ``durations`` and ``weights`` are each one's
    segment duration and the ``(n_classes, m)`` Rydberg counts ``W`` of its
    slots.  With ``M = V^dag W V``, ``D = V (M o K) V^dag``, where ``K_jk =
    T exp(i x_jk) sin(x_jk) / x_jk`` with ``x_jk = (lam_j - lam_k) T / 2`` is
    the integral of ``exp(i (lam_j - lam_k) t)`` over [0, T], ``T`` for
    degenerate eigenvalues.  ``D`` is the same for any eigenbasis inside a
    degenerate eigenspace, and its padding row and column vanish to rounding.
    """
    adjoint = eigvecs.conj().swapaxes(-1, -2)
    t = durations[:, None, None]
    half = (eigvals[..., :, None] - eigvals[..., None, :]) * (0.5 * t)
    sin = np.sin(half)
    scale = t * np.divide(sin, half, out=np.ones_like(half), where=half != 0)
    kernel = np.empty(half.shape, dtype=complex)
    kernel.real = np.cos(half) * scale
    kernel.imag = sin * scale
    return eigvecs @ (((adjoint * weights[:, None, :]) @ eigvecs) * kernel) @ adjoint


def pade_expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for a square matrix, or for each matrix of a ``(..., m, m)``
    stack, by scaling and squaring.

    Each matrix is halved until its 1-norm is at most ``_PADE13_NORM``, the
    degree-13 Pade approximant r(a) = q(a)^-1 p(a) is solved for, and the
    result squared back as many times as that matrix was halved.  The
    matrices are taken in descending order of that count, so each round
    squares a leading slice of the stack.
    """
    shape = a.shape
    a = a.reshape(-1, *shape[-2:])
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    squarings = np.zeros(norm.shape, dtype=int)
    large = norm > _PADE13_NORM
    squarings[large] = np.ceil(np.log2(norm[large] / _PADE13_NORM))
    order = np.argsort(-squarings, kind="stable")
    squarings = squarings[order]
    a = a[order] * np.ldexp(1.0, -squarings)[:, None, None]
    b = _PADE13
    eye = np.eye(a.shape[-1], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    odd = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
    )
    even = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    )
    r = np.linalg.solve(even - odd, even + odd)
    # round k squares the matrices halved more than k times, the first ends[k]
    ends = np.searchsorted(-squarings, -np.arange(squarings.max(initial=0)))
    for end in ends.tolist():
        r[:end] = r[:end] @ r[:end]
    result = np.empty_like(r)
    result[order] = r
    return result.reshape(shape)
