"""Dense complex linear algebra and product-basis indexing for registers of
three-level atoms.

Each atom has two ground levels ``g0``, ``g1`` and one Rydberg level ``r``.
Product states are indexed big-endian in base 3 with codes g0=0, g1=1, r=2,
so a three-atom register spans indices 0..26.  All angular frequencies are
rad/us and all times are us throughout the package.
"""

from __future__ import annotations

import functools
from itertools import product
from typing import NamedTuple, Sequence

import numpy as np

LEVELS = ("g0", "g1", "r")
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


def basis_index(levels: Sequence[str]) -> int:
    """Canonical index of a product basis state, e.g. ("r", "r", "g1") -> 25."""
    index = 0
    for level in levels:
        try:
            code = LEVEL_CODE[level]
        except (KeyError, TypeError):
            raise ValueError(
                f"unknown level {level!r}; expected one of {LEVELS}"
            ) from None
        index = 3 * index + code
    return index


def computational_labels(n_atoms: int) -> list[str]:
    """Bit-string labels of the 2**n computational basis states in gate
    order: "0..0", "0..1", ..., "1..1"."""
    return ["".join(bits) for bits in product("01", repeat=n_atoms)]


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
def rydberg_weights(n_atoms: int) -> np.ndarray:
    """Number of atoms in ``r`` for every full-space basis index."""
    in_r = level_codes(n_atoms) == LEVEL_CODE["r"]
    return _read_only(in_r.sum(axis=0).astype(float))


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


@functools.cache
def sectors(
    n_atoms: int, couplings: frozenset[tuple[int, str]]
) -> tuple[np.ndarray, np.ndarray]:
    """Blocks of basis states that a set of ``(atom, lower)`` couplings joins.

    A coupling links ``|lower>`` and ``|r>`` of one atom and nothing else, and
    every other term of a segment Hamiltonian is diagonal, so any Hamiltonian
    built from these couplings is block-diagonal, and each block is a product
    of per-atom level groups: ``r`` with the lower levels coupled to it on
    that atom, and each uncoupled lower level on its own.  Returns
    ``(index, valid)``: row ``b`` of the ``(n_blocks, m)`` ``index`` holds
    block ``b``'s basis indices in ascending order, padded to the largest
    block size ``m`` with index 0 where ``valid`` is False.  Blocks are
    ordered by their smallest basis index.
    """
    joined = np.zeros((n_atoms, 3), dtype=bool)
    joined[:, LEVEL_CODE["r"]] = True
    for atom, lower in couplings:
        joined[atom, LEVEL_CODE[lower]] = True
    # a block's smallest basis index puts every atom at the lowest level of
    # its group, and that index labels each state of the block
    lowest = np.where(joined, joined.argmax(axis=1)[:, None], np.arange(3))
    codes = np.take_along_axis(lowest, level_codes(n_atoms), axis=1)
    label = 3 ** np.arange(n_atoms - 1, -1, -1) @ codes
    _, block, sizes = np.unique(label, return_inverse=True, return_counts=True)
    valid = np.arange(sizes.max()) < sizes[:, None]
    index = np.zeros(valid.shape, dtype=np.intp)
    index[valid] = np.argsort(block, kind="stable")
    return _read_only(index), _read_only(valid)


class SectorLayout(NamedTuple):
    """How a full-space operator maps onto a padded stack of sector blocks.

    ``pairs`` is the ``(n_blocks, m, m)`` mask of entries inside a block;
    ``rows`` and ``cols`` are the full-space indices of those entries in
    mask order, so ``blocks[..., pairs] = full[..., rows, cols]`` gathers and
    ``full[rows, cols] = blocks[pairs]`` scatters.  ``weights`` is the
    ``(n_blocks, m)`` Rydberg count of each slot (0 in the padding), and
    ``slot[i]`` the flat ``(n_blocks * m)`` position of basis index ``i``.
    """

    pairs: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    slot: np.ndarray


@functools.cache
def sector_layout(
    n_atoms: int, couplings: frozenset[tuple[int, str]]
) -> SectorLayout:
    """The :class:`SectorLayout` of :func:`sectors`, computed once per
    register size and coupling set; every array is read-only."""
    index, valid = sectors(n_atoms, couplings)
    pairs = valid[:, :, None] & valid[:, None, :]
    rows = np.broadcast_to(index[:, :, None], pairs.shape)[pairs]
    cols = np.broadcast_to(index[:, None, :], pairs.shape)[pairs]
    weights = np.where(valid, rydberg_weights(n_atoms)[index], 0.0)
    slot = np.empty(3**n_atoms, dtype=np.intp)
    slot[index[valid]] = np.flatnonzero(valid)
    return SectorLayout(*map(_read_only, (pairs, rows, cols, weights, slot)))


def is_hermitian(matrix: np.ndarray, tol: float = 1e-12) -> bool:
    """Whether the max-norm of M - M^dagger, relative to the matrix scale,
    is at most ``tol``."""
    matrix = np.asarray(matrix)
    scale = max(1.0, float(np.abs(matrix).max())) if matrix.size else 1.0
    return float(np.abs(matrix - matrix.conj().T).max()) / scale <= tol


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
    (``hermitian`` only), and the result is the same to the bit.
    """
    h = np.asarray(hamiltonian, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise FloatingPointError("Hamiltonian contains non-finite entries")
    t = np.asarray(duration, dtype=float)
    if not np.all(np.isfinite(t)) or np.any(t < 0):
        raise ValueError(f"durations must be finite and >= 0, got {duration}")
    t = np.broadcast_to(t, h.shape[:-2])
    if eig is not None and (not hermitian or eig[0].shape != h.shape[:-1]):
        raise ValueError("eig must be the eigendecomposition of a Hermitian stack")
    if hermitian:
        u = eigen_exponential(*(np.linalg.eigh(h) if eig is None else eig), t)
    else:
        u = pade_expm(-1j * t[..., None, None] * h)
    if not np.all(np.isfinite(u)):
        raise FloatingPointError("propagator contains non-finite entries")
    return u


def eigen_exponential(
    eigvals: np.ndarray, eigvecs: np.ndarray, duration: np.ndarray
) -> np.ndarray:
    """exp(-i H t) for each ``H = V diag(lam) V^dag`` of a stack, from its
    eigenvalues ``(..., m)`` and eigenvectors ``(..., m, m)``; ``duration``
    broadcasts against the leading shape."""
    phases = np.exp(-1j * eigvals * np.asarray(duration)[..., None])
    return (eigvecs * phases[..., None, :]) @ eigvecs.conj().swapaxes(-1, -2)


def pade_expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for a square matrix, or for each matrix of a ``(..., m, m)``
    stack, by scaling and squaring.

    Each matrix is halved until its 1-norm is at most ``_PADE13_NORM``, the
    degree-13 Pade approximant r(a) = q(a)^-1 p(a) is solved for, and the
    result squared back as many times as that matrix was halved.
    """
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    squarings = np.zeros(norm.shape, dtype=int)
    large = norm > _PADE13_NORM
    squarings[large] = np.ceil(np.log2(norm[large] / _PADE13_NORM))
    a = a * np.ldexp(1.0, -squarings)[..., None, None]
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
    for k in range(int(squarings.max(initial=0))):
        r = np.where((squarings > k)[..., None, None], r @ r, r)
    return r
