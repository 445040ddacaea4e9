"""Dense complex linear algebra and product-basis indexing for registers of
three-level atoms.

Each atom has two ground levels ``g0``, ``g1`` and one Rydberg level ``r``.
Product states are indexed big-endian in base 3 with codes g0=0, g1=1, r=2,
so a three-atom register spans indices 0..26.  All angular frequencies are
rad/us and all times are us throughout the package.
"""

from __future__ import annotations

import functools
import math
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


def ket(levels: Sequence[str]) -> np.ndarray:
    """Unit state vector for one product basis state."""
    vec = np.zeros(3 ** len(levels), dtype=complex)
    vec[basis_index(levels)] = 1.0
    return vec


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
    hamiltonian: np.ndarray, duration: float, *, hermitian: bool | None = None
) -> np.ndarray:
    """Propagator exp(-i H t) for a constant Hamiltonian segment.

    Hermitian input (detected unless ``hermitian`` is forced) goes through an
    eigendecomposition, which is exact per segment; non-Hermitian input, as
    produced by the effective decay term, goes through :func:`pade_expm`.
    """
    h = np.asarray(hamiltonian, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise FloatingPointError("Hamiltonian contains non-finite entries")
    if not math.isfinite(duration) or duration < 0:
        raise ValueError(f"duration must be finite and >= 0, got {duration}")
    if hermitian is None:
        hermitian = is_hermitian(h)
    if hermitian:
        eigvals, eigvecs = np.linalg.eigh(h)
        u = (eigvecs * np.exp(-1j * eigvals * duration)) @ eigvecs.conj().T
    else:
        u = pade_expm(-1j * duration * h)
    if not np.all(np.isfinite(u)):
        raise FloatingPointError("propagator contains non-finite entries")
    return u


def pade_expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for a square matrix by scaling and squaring.

    ``a`` is halved until its 1-norm is at most ``_PADE13_NORM``, the
    degree-13 Pade approximant r(a) = q(a)^-1 p(a) is solved for, and the
    result squared back.
    """
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = max(0, math.ceil(math.log2(norm / _PADE13_NORM))) if norm > 0 else 0
    a = a * 0.5**squarings
    b = _PADE13
    eye = np.eye(a.shape[0], dtype=a.dtype)
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
    for _ in range(squarings):
        r = r @ r
    return r
