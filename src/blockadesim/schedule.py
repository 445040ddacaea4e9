"""Pulse-schedule synthesis for the Deutsch, Toffoli, and CNOT protocols.

:func:`segment_durations` is the one place the segment durations are written
down.  Also maps the gate angle theta to the Rabi ratio Omega2/Omega1 and
back, and solves the phase-matching condition that cancels the residue-shift
phase on the doubly excited controls.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .model import GateSchedule, PhysicalParams, PulseSegment, Transition

SQRT2 = math.sqrt(2.0)

# The angle is monotone in the ratio Omega2/Omega1 exactly on this interval,
# running from pi at the lower end to 0 at the upper end.
RATIO_MIN = SQRT2 - 1.0
RATIO_MAX = SQRT2 + 1.0

# Largest max|H| * duration a segment may carry, in rad.  Past it the
# propagator's eigenphases lose precision: the Deutsch gate error rises from
# 2e-15 to 2e-11 at 3e12 rad and to 3e-5 at 3e15 rad.  The analytic results
# are held to the same bound through the blockade phase of the longest
# segment, so that no subcommand reports a drive the simulator refuses.
MAX_SEGMENT_PHASE = 1e12

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


# Register size of each gate kind: two controls and the target, or one
# control and the target (the target is the last atom).
GATE_ATOMS = {"deutsch": 3, "toffoli": 3, "cnot": 2}


def segment_durations(gate: str, drive: DriveParams) -> tuple[float, ...]:
    """Segment durations of a gate's schedule, us: the control pi pulse, the
    target pulses, the control -pi pulse.

    Deutsch: (pi/w0, 2pi/wbar, 2pi/wbar, sqrt(2)pi/w3, pi/w0); Toffoli and
    CNOT drop the two ratio pulses: (pi/w0, sqrt(2)pi/w3, pi/w0).
    """
    t_control = math.pi / drive.omega0
    t_swap = SQRT2 * math.pi / drive.omega3
    if gate == "deutsch":
        t_lambda = 2.0 * math.pi / drive.omega_bar
        return (t_control, t_lambda, t_lambda, t_swap, t_control)
    if gate in GATE_ATOMS:
        return (t_control, t_swap, t_control)
    raise ValueError(f"gate must be one of {tuple(GATE_ATOMS)}, got {gate!r}")


def check_register(gate: str, params: PhysicalParams, durations: tuple[float, ...]) -> None:
    """Raise ``ValueError`` unless ``params`` describe the gate's register
    and the blockade phase ``|V| * max(durations)`` of the longest of a
    drive's segment ``durations`` (none, to check the register alone) is
    within ``MAX_SEGMENT_PHASE``."""
    if params.n_atoms != GATE_ATOMS[gate]:
        raise ValueError(
            f"the {gate} gate needs {GATE_ATOMS[gate]} atoms, params have {params.n_atoms}"
        )
    phase = abs(params.blockade) * max(durations, default=0.0)
    if phase > MAX_SEGMENT_PHASE:
        raise ValueError(f"blockade phase |V| * longest segment = {phase:.3g} rad exceeds "
                         f"{MAX_SEGMENT_PHASE:.0e} rad; check the drive and the interaction")


def residue_phase_over(durations: tuple[float, ...], residue: float) -> float:
    """Phase (rad) that the control-control shift ``residue`` (rad/us) puts
    on the doubly excited controls over the interior span of a gate whose
    segments last ``durations`` (us): the segments between the first and
    the last, the control pulses, summed in order from 0.0 (none for fewer
    than three segments), times -residue.  The one place the span is
    written down, for the simulator and the analytic results alike."""
    # 0.0 - x rather than -x, so that a zero residue gives +0.0
    return 0.0 - sum(durations[1:-1], 0.0) * residue


def residue_phase(gate: str, drive: DriveParams, params: PhysicalParams) -> float:
    """The gate's residue phase, -T_interior * params.control_residue, rad
    (zero for the CNOT).  ``params`` and the drive must pass
    :func:`check_register`."""
    durations = segment_durations(gate, drive)
    check_register(gate, params, durations)
    return residue_phase_over(durations, params.control_residue)


def _schedule(gate: str, drive: DriveParams, ratio_pulses=()) -> GateSchedule:
    """Control pi pulse on every control's g0, the target pulses (the
    ``ratio_pulses``, then the equal-magnitude opposite-phase swap pulse),
    control -pi pulse.  The target is the last atom."""
    target = GATE_ATOMS[gate] - 1
    couplings = (
        tuple(Transition(atom, "g0", drive.omega0) for atom in range(target)),
        *ratio_pulses,
        (Transition(target, "g0", drive.omega3), Transition(target, "g1", -drive.omega3)),
        tuple(Transition(atom, "g0", -drive.omega0) for atom in range(target)),
    )
    segments = zip(couplings, segment_durations(gate, drive), strict=True)
    return GateSchedule(tuple(PulseSegment(c, t) for c, t in segments), gate, target + 1)


def deutsch_schedule(drive: DriveParams) -> GateSchedule:
    """Five-pulse schedule: control pi pulse, three target pulses, control -pi."""
    return _schedule("deutsch", drive, (
        (Transition(2, "g0", drive.omega1), Transition(2, "g1", 1j * drive.omega2)),
        (Transition(2, "g0", drive.omega2), Transition(2, "g1", 1j * drive.omega1)),
    ))


def toffoli_schedule(drive: DriveParams) -> GateSchedule:
    """Three-pulse Toffoli: the Deutsch schedule without the two ratio pulses."""
    return _schedule("toffoli", drive)


def cnot_schedule(drive: DriveParams) -> GateSchedule:
    """Three-pulse CNOT on a (control, target) register."""
    return _schedule("cnot", drive)


def solve_phase_matching(n_windings: int, gate: str, params: PhysicalParams) -> float:
    """omega_bar making the gate's residue phase an exact multiple of 2 pi.

    Under the sweep constraint omega3 = omega_bar/sqrt(2) every interior
    segment lasts a fixed multiple of 1/omega_bar, so phi(omega_bar) omega_bar
    is a constant and omega_bar_N = omega_bar |phi(omega_bar)| / (2 pi N)
    gives |phi| = 2 N pi (phi = +2 N pi for attractive, i.e. negative,
    shifts).  Raises ``ValueError`` for a gate with no residue phase (the
    CNOT, or a zero control-control shift): it has no solutions; and when
    omega_bar_N is below the normal float range (a tiny C6).
    """
    if int(n_windings) != n_windings or n_windings < 1:
        raise ValueError(f"n_windings must be a positive integer, got {n_windings}")
    # omega_bar = 1 rad/us; omega0 and the ratio do not enter the interior.
    # This reference drive is not held to the segment-phase bound, which
    # the drives built from the solution are.
    durations = segment_durations(gate, DriveParams.from_ratio(1.0, 1.0, 1.0))
    check_register(gate, params, ())
    phi = residue_phase_over(durations, params.control_residue)
    if phi == 0:
        raise ValueError(f"the {gate} gate has no residue phase to match")
    omega_bar = abs(phi) / (2.0 * math.pi * n_windings)
    if omega_bar < sys.float_info.min:
        raise ValueError(f"the {gate} gate's residue phase {phi:.3g} rad (at omega_bar = 1 "
                         f"rad/us) puts omega_bar for N = {n_windings} below the float range")
    return omega_bar
