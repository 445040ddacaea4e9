"""Dense complex linear algebra and product-basis indexing for registers of
three-level atoms.

Each atom has two ground levels ``g0``, ``g1`` and one Rydberg level ``r``.
Product states are indexed big-endian in base 3 with codes g0=0, g1=1, r=2,
so a three-atom register spans indices 0..26.  All angular frequencies are
rad/us and all times are us throughout the package.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import product
from typing import Sequence

import numpy as np

LEVELS = ("g0", "g1", "r")
LEVEL_CODE = {"g0": 0, "g1": 1, "r": 2}

# Default tolerances; callers may override per call.
HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
NORM_TOL = 1e-10

IDENTITY_3 = np.eye(3, dtype=complex)

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


def levels_from_index(index: int, n_atoms: int) -> tuple[str, ...]:
    """Inverse of :func:`basis_index` for a register of ``n_atoms`` atoms."""
    if not 0 <= index < 3**n_atoms:
        raise ValueError(f"index {index} out of range for {n_atoms} atoms")
    codes = []
    for _ in range(n_atoms):
        index, code = divmod(index, 3)
        codes.append(code)
    return tuple(LEVELS[c] for c in reversed(codes))


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


def computational_indices(n_atoms: int) -> np.ndarray:
    """Full-space indices of the computational (all-ground) basis states."""
    return np.array(
        [
            basis_index(tuple(LEVELS[b] for b in bits))
            for bits in computational_bits(n_atoms)
        ],
        dtype=int,
    )


def rydberg_weights(n_atoms: int) -> np.ndarray:
    """Number of atoms in ``r`` for every full-space basis index."""
    weights = np.zeros(3**n_atoms, dtype=float)
    for index in range(3**n_atoms):
        weights[index] = levels_from_index(index, n_atoms).count("r")
    return weights


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


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, consistent with :func:`basis_index` ordering."""
    return np.kron(np.asarray(a), np.asarray(b))


def embed_operator(op: np.ndarray, atom: int, n_atoms: int) -> np.ndarray:
    """Single-atom operator acting on ``atom``, identity on all others."""
    op = np.asarray(op, dtype=complex)
    if op.shape != (3, 3):
        raise ValueError(f"expected a 3x3 single-atom operator, got {op.shape}")
    if not 0 <= atom < n_atoms:
        raise ValueError(f"atom {atom} out of range for {n_atoms} atoms")
    factors = [IDENTITY_3] * n_atoms
    factors[atom] = op
    return reduce(tensor_product, factors)
