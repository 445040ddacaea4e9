"""Physical parameters, van der Waals shifts, and per-segment Hamiltonians.

The register is a fixed linear chain: for three atoms the two controls sit at
the outer sites and the target at the center, so both control-target pairs
are separated by the lattice spacing L while the control-control pair sits at
2L and feels the 64-fold weaker residue shift.  Atom order in kets and atom
indices is (control 1, control 2, target) for three atoms and
(control, target) for two.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import qcore

TWO_PI = 2.0 * math.pi

GROUND_LEVELS = ("g0", "g1")

# Largest max|H| * duration a segment may carry, in rad.  Past it the
# propagator's eigenphases lose precision: the Deutsch gate error rises from
# 2e-15 to 2e-11 at 3e12 rad and to 3e-5 at 3e15 rad.
MAX_SEGMENT_PHASE = 1e12


def vdw_shift(c6_over_2pi: float, distance: float) -> float:
    """Pair shift C6/d^6 as an angular frequency in rad/us.

    ``c6_over_2pi`` is in GHz um^6 (signed), ``distance`` in um.  Raises
    ``ValueError`` when ``distance**6`` overflows or underflows the normal
    float range, or when the shift is not finite.
    """
    if not distance > 0:
        raise ValueError(f"distance must be > 0, got {distance}")
    try:
        d6 = float(distance) ** 6
    except OverflowError:
        d6 = math.inf
    if not sys.float_info.min <= d6 < math.inf:
        raise ValueError(f"distance**6 is outside the float range at distance {distance} um")
    shift = TWO_PI * 1e3 * c6_over_2pi / d6
    if not math.isfinite(shift):
        raise ValueError(f"van der Waals shift is not finite at distance {distance} um")
    return shift


@dataclass(frozen=True)
class PhysicalParams:
    """Geometry and atomic constants of the register.

    c6_over_2pi: van der Waals coefficient, GHz um^6 (signed).
    spacing: nearest-neighbour lattice spacing L, um.
    lifetime: Rydberg-state lifetime tau, us.
    n_atoms: register size, 2 or 3.
    """

    c6_over_2pi: float
    spacing: float
    lifetime: float
    n_atoms: int = 3

    def __post_init__(self):
        if not self.spacing > 0:
            raise ValueError(f"spacing must be > 0, got {self.spacing}")
        if not self.lifetime > 0:
            raise ValueError(f"lifetime must be > 0, got {self.lifetime}")
        if self.n_atoms not in (2, 3):
            raise ValueError(f"n_atoms must be 2 or 3, got {self.n_atoms}")

    @property
    def blockade(self) -> float:
        """Control-target shift V = C6/L^6, rad/us."""
        return vdw_shift(self.c6_over_2pi, self.spacing)

    @property
    def control_residue(self) -> float:
        """Control-control shift V/64, rad/us (zero for a two-atom register)."""
        if self.n_atoms == 2:
            return 0.0
        return vdw_shift(self.c6_over_2pi, 2.0 * self.spacing)

    def with_interaction_scaled(self, factor: float) -> "PhysicalParams":
        """Copy with C6 multiplied by ``factor`` (blockade-limit studies)."""
        return replace(self, c6_over_2pi=self.c6_over_2pi * factor)


@functools.lru_cache(maxsize=256)
def interaction_diagonal(
    params: PhysicalParams, cc_interaction: str = "physical"
) -> np.ndarray:
    """Summed pair shift of every basis state, rad/us: ``params.blockade``
    where a control and the target are both in ``r``, plus
    ``params.control_residue`` where both controls are (``"physical"``
    only).  Computed once per ``(params, cc_interaction)`` and returned
    read-only."""
    if cc_interaction not in ("physical", "none"):
        raise ValueError(
            f"cc_interaction must be 'physical' or 'none', got {cc_interaction!r}"
        )
    *controls, target = qcore.level_codes(params.n_atoms) == qcore.LEVEL_CODE["r"]
    diag = np.zeros(target.shape)
    blockade = params.blockade
    for control in controls:
        diag[control & target] += blockade
    if cc_interaction == "physical" and len(controls) == 2:
        diag[controls[0] & controls[1]] += params.control_residue
    diag.flags.writeable = False
    return diag


@dataclass(frozen=True)
class Transition:
    """One laser coupling |lower> <-> |r> on one atom.

    ``rabi`` is the complex Rabi amplitude in rad/us; the Hamiltonian
    contribution is (rabi/2)|r><lower| + h.c., so a purely imaginary amplitude
    produces the i*Omega*(|r><lower| - h.c.)/2 coupling.
    """

    atom: int
    lower: str
    rabi: complex

    def __post_init__(self):
        if self.atom < 0:
            raise ValueError(f"atom index must be >= 0, got {self.atom}")
        if self.lower not in GROUND_LEVELS:
            raise ValueError(f"lower level must be one of {GROUND_LEVELS}, got {self.lower!r}")
        rabi = complex(self.rabi)
        if not (math.isfinite(rabi.real) and math.isfinite(rabi.imag)) or rabi == 0:
            raise ValueError(f"rabi must be finite and nonzero, got {self.rabi!r}")
        object.__setattr__(self, "rabi", rabi)


@dataclass(frozen=True)
class PulseSegment:
    """Piecewise-constant drive: a set of transitions held for ``duration`` us."""

    transitions: tuple[Transition, ...]
    duration: float

    def __post_init__(self):
        object.__setattr__(self, "transitions", tuple(self.transitions))
        if not self.duration > 0 or not math.isfinite(self.duration):
            raise ValueError(f"duration must be finite and > 0, got {self.duration}")
        seen = set()
        for tr in self.transitions:
            key = (tr.atom, tr.lower)
            if key in seen:
                raise ValueError(f"duplicate coupling on atom {tr.atom} level {tr.lower}")
            seen.add(key)


@dataclass(frozen=True)
class GateSchedule:
    """Ordered pulse segments realizing one gate on a fixed register size."""

    segments: tuple[PulseSegment, ...]
    gate_kind: str
    n_atoms: int

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if self.n_atoms not in (2, 3):
            raise ValueError(f"n_atoms must be 2 or 3, got {self.n_atoms}")
        for segment in self.segments:
            for tr in segment.transitions:
                if tr.atom >= self.n_atoms:
                    raise ValueError(
                        f"transition on atom {tr.atom} exceeds register of {self.n_atoms}"
                    )

    @property
    def total_duration(self) -> float:
        return sum(seg.duration for seg in self.segments)

    @property
    def interior_duration(self) -> float:
        """Duration between the end of the first and start of the last segment."""
        if len(self.segments) < 3:
            return 0.0
        return sum(seg.duration for seg in self.segments[1:-1])


def segment_hamiltonian(
    segment: PulseSegment,
    params: PhysicalParams,
    *,
    cc_interaction: str = "physical",
) -> np.ndarray:
    """Drive terms plus interaction diagonal; Hermitian by construction.

    Each coupling's ``rabi/2`` and its conjugate are scattered onto the
    index pairs of :func:`qcore.coupling_indices`.  Raises ``ValueError``
    when ``max|H| * duration`` exceeds ``MAX_SEGMENT_PHASE``.
    """
    n = params.n_atoms
    h = np.diag(interaction_diagonal(params, cc_interaction).astype(complex))
    couplings = qcore.coupling_indices(n)
    for tr in segment.transitions:
        if tr.atom >= n:
            raise ValueError(f"transition on atom {tr.atom} exceeds register of {n}")
        rows, cols = couplings[tr.atom, qcore.LEVEL_CODE[tr.lower]]
        h[rows, cols] = tr.rabi / 2.0
        h[cols, rows] = np.conj(tr.rabi) / 2.0
    phase = float(np.abs(h).max()) * segment.duration
    if phase > MAX_SEGMENT_PHASE:
        raise ValueError(
            f"segment phase max|H|*duration = {phase:.3g} rad exceeds "
            f"{MAX_SEGMENT_PHASE:.0e}; check the spacing and drive amplitudes"
        )
    return h
