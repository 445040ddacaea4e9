"""Pulse-schedule synthesis for the Deutsch, Toffoli, and CNOT protocols.

Also maps the gate angle theta to the Rabi ratio Omega2/Omega1 and back, and
solves the phase-matching condition that cancels the residue-shift phase on
the doubly excited controls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import GateSchedule, PulseSegment, Transition

SQRT2 = math.sqrt(2.0)

# The angle is monotone in the ratio Omega2/Omega1 exactly on this interval,
# running from pi at the lower end to 0 at the upper end.
RATIO_MIN = SQRT2 - 1.0
RATIO_MAX = SQRT2 + 1.0

# Rounding in atan2 and in the inputs can carry an endpoint of the branch a
# few ulp past 0 (which the modulo would wrap to just below 2 pi) or past pi.
_ENDPOINT_SNAP = 1e-14


@dataclass(frozen=True)
class DriveParams:
    """Rabi magnitudes of the four drive tones, rad/us, all > 0.

    omega0 drives the control pulses, (omega1, omega2) the two swapped-ratio
    target pulses, omega3 the equal-magnitude opposite-phase target pulse.
    """

    omega0: float
    omega1: float
    omega2: float
    omega3: float

    def __post_init__(self):
        for name in ("omega0", "omega1", "omega2", "omega3"):
            value = getattr(self, name)
            if not value > 0 or not math.isfinite(value):
                raise ValueError(f"{name} must be finite and > 0, got {value}")

    @property
    def omega_bar(self) -> float:
        """Bright-state Rabi frequency sqrt(omega1^2 + omega2^2)."""
        return math.hypot(self.omega1, self.omega2)

    @property
    def theta(self) -> float:
        return theta_from_omegas(self.omega1, self.omega2)

    @classmethod
    def from_ratio(cls, omega0, omega_bar, ratio, omega3=None):
        """Build from omega_bar and the ratio omega2/omega1."""
        if not ratio > 0:
            raise ValueError(f"ratio must be > 0, got {ratio}")
        omega1 = omega_bar / math.sqrt(1.0 + ratio * ratio)
        if omega3 is None:
            omega3 = omega_bar / SQRT2
        return cls(omega0, omega1, ratio * omega1, omega3)

    @classmethod
    def from_theta(cls, omega0, omega_bar, theta, omega3=None):
        """Build from the target gate angle on the monotone ratio branch."""
        omega1, omega2 = omegas_from_theta(theta, omega_bar)
        if omega3 is None:
            omega3 = omega_bar / SQRT2
        return cls(omega0, omega1, omega2, omega3)


def theta_from_omegas(omega1: float, omega2: float) -> float:
    """Gate angle realized by the two swapped-ratio 2pi pulses.

    sin(theta) = (6 w1^2 w2^2 - w1^4 - w2^4) / (w1^2 + w2^2)^2
    cos(theta) = 4 w1 w2 (w2^2 - w1^2) / (w1^2 + w2^2)^2

    With w1 = cos(b), w2 = sin(b) (b = atan2(w2, w1)) the right-hand sides
    are -cos(4b) and -sin(4b), so theta = 3pi/2 - 4b modulo 2pi, which is
    what is returned.  Scale invariant in (w1, w2).  The angle lies in
    [0, pi] for ratios on the tunable branch [sqrt(2)-1, sqrt(2)+1]; ratios
    outside it wrap into (pi, 2 pi).  Angles within ``_ENDPOINT_SNAP`` of 0
    or of pi, before the wrap, are returned as exactly 0 or pi.
    """
    if not omega1 > 0 or not omega2 > 0:
        raise ValueError(f"Rabi magnitudes must be > 0, got ({omega1}, {omega2})")
    theta = 1.5 * math.pi - 4.0 * math.atan2(omega2, omega1)  # in (-pi/2, 3pi/2)
    if abs(theta) < _ENDPOINT_SNAP:
        return 0.0
    if abs(theta - math.pi) < _ENDPOINT_SNAP:
        return math.pi
    return theta % (2.0 * math.pi)


def omegas_from_theta(theta: float, omega_bar: float) -> tuple[float, float]:
    """Invert :func:`theta_from_omegas` on the monotone ratio branch.

    On the branch b = atan2(w2, w1) runs over [pi/8, 3pi/8], so
    b = 3pi/8 - theta/4 and (omega1, omega2) = omega_bar (cos b, sin b).
    """
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    if not omega_bar > 0:
        raise ValueError(f"omega_bar must be > 0, got {omega_bar}")
    angle = 3.0 * math.pi / 8.0 - theta / 4.0
    return omega_bar * math.cos(angle), omega_bar * math.sin(angle)


def deutsch_schedule(drive: DriveParams) -> GateSchedule:
    """Five-pulse schedule: control pi pulse, three target pulses, control -pi.

    Segment durations are (pi/w0, 2pi/wbar, 2pi/wbar, sqrt(2)pi/w3, pi/w0).
    """
    t_control = math.pi / drive.omega0
    t_lambda = 2.0 * math.pi / drive.omega_bar
    t_swap = SQRT2 * math.pi / drive.omega3
    segments = (
        PulseSegment(
            (Transition(0, "g0", drive.omega0), Transition(1, "g0", drive.omega0)),
            t_control,
        ),
        PulseSegment(
            (
                Transition(2, "g0", drive.omega1),
                Transition(2, "g1", 1j * drive.omega2),
            ),
            t_lambda,
        ),
        PulseSegment(
            (
                Transition(2, "g0", drive.omega2),
                Transition(2, "g1", 1j * drive.omega1),
            ),
            t_lambda,
        ),
        PulseSegment(
            (
                Transition(2, "g0", drive.omega3),
                Transition(2, "g1", -drive.omega3),
            ),
            t_swap,
        ),
        PulseSegment(
            (Transition(0, "g0", -drive.omega0), Transition(1, "g0", -drive.omega0)),
            t_control,
        ),
    )
    return GateSchedule(segments, "deutsch", 3)


def toffoli_schedule(drive: DriveParams) -> GateSchedule:
    """Three-pulse Toffoli: the Deutsch schedule without the two ratio pulses."""
    full = deutsch_schedule(drive).segments
    return GateSchedule((full[0], full[3], full[4]), "toffoli", 3)


def cnot_schedule(drive: DriveParams) -> GateSchedule:
    """Three-pulse CNOT on a (control, target) register."""
    t_control = math.pi / drive.omega0
    t_swap = SQRT2 * math.pi / drive.omega3
    segments = (
        PulseSegment((Transition(0, "g0", drive.omega0),), t_control),
        PulseSegment(
            (
                Transition(1, "g0", drive.omega3),
                Transition(1, "g1", -drive.omega3),
            ),
            t_swap,
        ),
        PulseSegment((Transition(0, "g0", -drive.omega0),), t_control),
    )
    return GateSchedule(segments, "cnot", 2)


def phase_phi(drive: DriveParams, v: float) -> float:
    """Residue phase on the doubly excited controls between the control pulses.

    phi = -T234 * v / 64 with T234 = 2pi (2/omega_bar + 1/(sqrt(2) omega3)),
    the span of the three target pulses.
    """
    t234 = 2.0 * math.pi * (2.0 / drive.omega_bar + 1.0 / (SQRT2 * drive.omega3))
    return -t234 * v / 64.0


def solve_phase_matching(n_windings: int, v: float) -> float:
    """omega_bar making the residue phase an exact multiple of 2 pi.

    Under the sweep constraint omega3 = omega_bar/sqrt(2) the residue phase is
    -6 pi v / (64 omega_bar), so omega_bar = 3|v| / (64 N) gives
    |phi| = 2 N pi (phi = +2 N pi for attractive, i.e. negative, v).
    """
    if int(n_windings) != n_windings or n_windings < 1:
        raise ValueError(f"n_windings must be a positive integer, got {n_windings}")
    if v == 0:
        raise ValueError("v must be nonzero")
    return 3.0 * abs(v) / (64.0 * n_windings)
