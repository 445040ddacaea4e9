"""Ideal gate matrices in the computational basis and fidelity metrics."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def _swap_block(dim: int, diagonal: complex, off_diagonal: complex) -> np.ndarray:
    """The identity of size ``dim`` with the 2x2 block [[diagonal,
    off_diagonal], [off_diagonal, diagonal]] on its last two states."""
    import numpy as np

    gate = np.eye(dim, dtype=complex)
    gate[-2, -2] = gate[-1, -1] = diagonal
    gate[-2, -1] = gate[-1, -2] = off_diagonal
    return gate


def deutsch_ideal(theta: float) -> np.ndarray:
    """8x8 gate: identity on the first six states, the 2x2 block
    [[i cos(theta), sin(theta)], [sin(theta), i cos(theta)]] on |110>, |111>."""
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    return _swap_block(8, 1j * math.cos(theta), math.sin(theta))


def toffoli_ideal() -> np.ndarray:
    """Controlled-controlled-NOT: swaps |110> and |111>."""
    return _swap_block(8, 0.0, 1.0)


def cnot_ideal() -> np.ndarray:
    """Controlled-NOT: swaps |10> and |11>."""
    return _swap_block(4, 0.0, 1.0)


def gate_fidelity(u_sim: np.ndarray, u_ideal: np.ndarray, mode: str = "state_average") -> float:
    """Global-phase-invariant overlap between a simulated and an ideal gate.

    trace mode:         |Tr(U_ideal^dag U_sim)| / d
    state_average mode: mean over computational inputs of |<ideal out|sim out>|^2

    Non-unitary simulated blocks are compared as-is, so leakage and decay
    register as infidelity.
    """
    import numpy as np

    u_sim = np.asarray(u_sim, dtype=complex)
    u_ideal = np.asarray(u_ideal, dtype=complex)
    if u_sim.shape != u_ideal.shape or u_sim.ndim != 2 or u_sim.shape[0] != u_sim.shape[1]:
        raise ValueError(f"shape mismatch: {u_sim.shape} vs {u_ideal.shape}")
    overlap = u_ideal.conj().T @ u_sim
    dim = u_sim.shape[0]
    if mode == "trace":
        return float(abs(np.trace(overlap))) / dim
    if mode == "state_average":
        return float(np.mean(np.abs(np.diag(overlap)) ** 2))
    raise ValueError(f"mode must be 'trace' or 'state_average', got {mode!r}")
