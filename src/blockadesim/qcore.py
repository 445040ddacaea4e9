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
from typing import Sequence

import numpy as np

LEVELS = ("g0", "g1", "r")
LEVEL_CODE = {"g0": 0, "g1": 1, "r": 2}

# Default tolerances; callers may override per call.
HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
NORM_TOL = 1e-10

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


def computational_bits(n_atoms: int) -> list[tuple[int, ...]]:
    """Qubit bit patterns in gate order: (0,..,0), (0,..,1), ..., (1,..,1)."""
    return list(product((0, 1), repeat=n_atoms))


def computational_labels(n_atoms: int) -> list[str]:
    """Bit-string labels for the 2**n computational basis states."""
    return ["".join(str(b) for b in bits) for bits in computational_bits(n_atoms)]


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

    A coupling links ``|lower>`` and ``|r>`` of one atom, and every other
    term of a segment Hamiltonian is diagonal, so any Hamiltonian built from
    these couplings is block-diagonal over the connected components of their
    union.  Returns ``(index, valid)``: row ``b`` of the ``(n_blocks, m)``
    ``index`` holds block ``b``'s basis indices in ascending order, padded to
    the largest block size ``m`` with index 0 where ``valid`` is False.
    Blocks are ordered by their smallest basis index.
    """
    table = coupling_indices(n_atoms)
    label = np.arange(3**n_atoms)
    while True:
        # every state takes the smallest label among its neighbours until
        # each component carries the index of its first state
        before = label.copy()
        for atom, lower in couplings:
            rows, cols = table[atom, LEVEL_CODE[lower]]
            low = np.minimum(label[rows], label[cols])
            label[rows] = low
            label[cols] = low
        if np.array_equal(label, before):
            break
    _, block, sizes = np.unique(label, return_inverse=True, return_counts=True)
    valid = np.arange(sizes.max()) < sizes[:, None]
    index = np.zeros(valid.shape, dtype=np.intp)
    index[valid] = np.argsort(block, kind="stable")
    return _read_only(index), _read_only(valid)


def hermitian_defect(matrix: np.ndarray) -> float:
    """Max-norm of M - M^dagger relative to the matrix scale."""
    matrix = np.asarray(matrix)
    scale = max(1.0, float(np.abs(matrix).max())) if matrix.size else 1.0
    return float(np.abs(matrix - matrix.conj().T).max()) / scale


def is_hermitian(matrix: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    return hermitian_defect(matrix) <= tol


def require_hermitian(matrix: np.ndarray, tol: float = HERMITIAN_TOL) -> None:
    defect = hermitian_defect(matrix)
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian (relative defect {defect:.3e})")


def unitarity_defect(matrix: np.ndarray) -> float:
    """Max-norm of U^dagger U - I."""
    matrix = np.asarray(matrix)
    eye = np.eye(matrix.shape[0])
    return float(np.abs(matrix.conj().T @ matrix - eye).max())


def matrix_exponential(
    hamiltonian: np.ndarray, duration: float | np.ndarray, *, hermitian: bool
) -> np.ndarray:
    """Propagators exp(-i H t) for constant Hamiltonian segments.

    ``hamiltonian`` is one ``(m, m)`` matrix or a stack ``(..., m, m)``, and
    ``duration`` a scalar or an array that broadcasts against the stack's
    leading shape.  With ``hermitian`` the stack goes through one batched
    eigendecomposition, which is exact per segment; otherwise, as for the
    effective decay term, through one batched :func:`pade_expm`.
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
    if hermitian:
        eigvals, eigvecs = np.linalg.eigh(h)
        phases = np.exp(-1j * eigvals * t[..., None])
        u = (eigvecs * phases[..., None, :]) @ eigvecs.conj().swapaxes(-1, -2)
    else:
        u = pade_expm(-1j * t[..., None, None] * h)
    if not np.all(np.isfinite(u)):
        raise FloatingPointError("propagator contains non-finite entries")
    return u


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
