"""Analytic error budget of the Deutsch, Toffoli or CNOT gate, and
parameter sweeps.

Three error mechanisms are budgeted: Rydberg decay (mean dwell time over
lifetime), the residue control-control shift that hampers the simultaneous
control excitation, and population leakage through blockade-shift two-photon
transitions.  The budget, the dwell table and the sweep follow the gate they
are given.  All formulas are closed-form, so sweeps are instantaneous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .model import TWO_PI, PhysicalParams, computational_labels
from .schedule import (
    GATE_ATOMS,
    SQRT2,
    DriveParams,
    check_register,
    residue_phase_over,
    segment_durations,
)

# Cs 84p3/2 lifetime at cryogenic and room temperature, us.
TAU_BY_TEMPERATURE = {"4.2K": 1590.0, "300K": 313.0}

SWEEP_MAX_OMEGA_BAR_MHZ = 2.3

# Largest grid sweep_grid builds.  A full sweep costs about 13 us and 0.77 KB
# per point (best of 7 x 20 sweeps of 115 points, and the tracemalloc peak
# over 11401 points; 2 vCPUs, Python 3.11), so this is about 1.3 s and 77 MB.
SWEEP_MAX_POINTS = 100_000

# (label, number of controls in g0, target bit) of each computational input
_INPUTS = {
    n: [(label, label[:-1].count("0"), int(label[-1])) for label in computational_labels(n)]
    for n in set(GATE_ATOMS.values())
}


@dataclass(frozen=True)
class ErrorBudget:
    """Times (us), residue phase (rad), and error probabilities for one
    operating point.  ``total`` is exactly the sum of the three error terms."""

    gate_time_us: float
    control_dwell_us: float
    mean_rydberg_time_us: float
    residue_phase_rad: float
    decay: float
    blockade: float
    two_photon: float

    @property
    def total(self) -> float:
        return self.decay + self.blockade + self.two_photon


def _control_dwell(durations: tuple[float, ...]) -> float:
    # half of each control pulse plus the interior
    return 0.5 * (durations[0] + durations[-1]) + sum(durations[1:-1])


def dwell_table(drive: DriveParams, gate: str = "deutsch") -> dict[str, float]:
    """Closed-form Rydberg dwell time (us) of each computational input, in
    the perfect-blockade limit.

    An input with k controls in g0 holds k controls in r through the gate,
    k times the control dwell, and blockades the target.  With every
    control in g1 only the target pulses act: the swap pulse that ends each
    gate gives a quarter of its duration, sqrt(2) pi/(4 w3), and the two
    Deutsch ratio pulses add (pi/wbar)(u2 + v2 (v2 - 3 u2)^2) to target 0
    (u and v swapped for target 1), with u2 = (w1/wbar)^2, v2 = (w2/wbar)^2.
    """
    return _dwell_rows(segment_durations(gate, drive), drive, gate)


def _dwell_rows(
    durations: tuple[float, ...], drive: DriveParams, gate: str
) -> dict[str, float]:
    t_x = _control_dwell(durations)
    tail = durations[-2] / 4.0
    target_rows = (tail, tail)
    if gate == "deutsch":
        half, wbar = durations[1] / 2.0, drive.omega_bar  # half = pi / wbar
        u2 = (drive.omega1 / wbar) ** 2
        v2 = (drive.omega2 / wbar) ** 2
        target_rows = (
            half * (u2 + v2 * (v2 - 3.0 * u2) ** 2) + tail,
            half * (v2 + u2 * (u2 - 3.0 * v2) ** 2) + tail,
        )
    return {
        label: excited * t_x if excited else target_rows[bit]
        for label, excited, bit in _INPUTS[GATE_ATOMS[gate]]
    }


def avg_dwell(drive: DriveParams) -> float:
    """The paper's closed form of the mean Deutsch dwell over the eight
    inputs: T_x + pi/(4 wbar) + pi/(8 sqrt(2) w3), us, with the control dwell
    T_x = pi/w0 + 2 * 2pi/wbar + sqrt(2) pi/w3.

    Equality with the mean of :func:`dwell_table` rests on the identity
    w2^2 (w2^2 - 3 w1^2)^2 + w1^2 (w1^2 - 3 w2^2)^2 = (w1^2 + w2^2)^3.
    """
    return (
        _control_dwell(segment_durations("deutsch", drive))
        + math.pi / (4.0 * drive.omega_bar)
        + math.pi / (8.0 * SQRT2 * drive.omega3)
    )


def _decay(mean_dwell: float, tau: float) -> float:
    if not tau > 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    return mean_dwell / tau


def blockade_error(residue: float, omega0: float) -> float:
    """Imperfect simultaneous control excitation under the control-control
    shift ``residue`` (rad/us): 2 residue^2 / omega0^2."""
    if not omega0 > 0:
        raise ValueError(f"omega0 must be > 0, got {omega0}")
    return 2.0 * residue**2 / omega0**2


def _two_photon(
    durations: tuple[float, ...], drive: DriveParams, v: float, gate: str
) -> float:
    """Half of the inputs, on either register, have one control in r and see
    an effective detuning of 2v (the weak rows); with two controls a quarter
    have both in r and see 4v (the strong rows).  Each target pulse gives one
    row of each kind: the swap pulse, and for the Deutsch gate the two ratio
    pulses, which share one phase.  The residue correction v/32 to the 4v is
    dropped: it is 1/128 of that detuning and moves only the quarter-weight
    strong-row term.

    Each row is sin^2 of its phase, so it rises with the drive only while
    the weak phase is within pi/2 in magnitude; past it the rows fall as the
    blockade weakens and can sum above 1, so ``ValueError`` is raised there.
    The bound keeps the rows monotone; it does not mark the blockade regime.
    """
    if v == 0:
        raise ValueError("v must be nonzero")
    # each row's phase times its detuning: the swap, then the ratio pulses
    products = [drive.omega3**2 * durations[-2] / 2.0]
    if gate == "deutsch":
        products.append(drive.omega1 * drive.omega2 * durations[1])
    strong_weight = 0.25 if GATE_ATOMS[gate] == 3 else 0.0
    loss = 0.0
    for x in products:
        weak = x / (2.0 * v)  # the strong row's phase is half of it
        if not math.isfinite(weak):
            raise ValueError(
                f"two-photon phase is not finite: the blockade shift {v:.3g} rad/us "
                "is too small for the drive"
            )
        if abs(weak) > math.pi / 2:
            raise ValueError(
                f"two-photon phase {weak:.3g} rad exceeds pi/2 in magnitude: the blockade "
                f"shift {v:.3g} rad/us is too weak for the drive to be blockaded"
            )
        loss += 0.5 * math.sin(weak) ** 2 + strong_weight * math.sin(weak / 2.0) ** 2
    return loss


def error_budget(
    drive: DriveParams, params: PhysicalParams, tau: float, gate: str = "deutsch"
) -> ErrorBudget:
    """Assemble the gate's analytic budget at an explicit lifetime (us).

    ``params`` must describe the gate's register (three atoms, two for the
    CNOT), the drive must stay within the simulator's segment-phase bound
    (:func:`schedule.check_register`) and each two-photon phase within pi/2
    (:func:`_two_photon`); ``ValueError`` otherwise.
    """
    durations = segment_durations(gate, drive)
    check_register(gate, params, durations)
    table = _dwell_rows(durations, drive, gate)
    mean_dwell = sum(table.values()) / len(table)
    residue = params.control_residue
    return ErrorBudget(
        gate_time_us=sum(durations),
        control_dwell_us=_control_dwell(durations),
        mean_rydberg_time_us=mean_dwell,
        residue_phase_rad=residue_phase_over(durations, residue),
        decay=_decay(mean_dwell, tau),
        blockade=blockade_error(residue, drive.omega0),
        two_photon=_two_photon(durations, drive, params.blockade, gate),
    )


@dataclass(frozen=True)
class SweepPoint:
    """Budget at one omega_bar grid value, at both reference temperatures."""

    omega_bar_mhz: float
    drive: DriveParams
    budget_4k: ErrorBudget
    budget_300k: ErrorBudget

    def budget(self, temperature: str) -> ErrorBudget:
        """The budget at a ``TAU_BY_TEMPERATURE`` key; ``ValueError`` for
        any other temperature."""
        if temperature not in TAU_BY_TEMPERATURE:
            raise ValueError(f"temperature must be one of {sorted(TAU_BY_TEMPERATURE)}, "
                             f"got {temperature!r}")
        return dict(zip(TAU_BY_TEMPERATURE, (self.budget_4k, self.budget_300k)))[temperature]


def sweep_grid(start_mhz: float, stop_mhz: float, step_mhz: float) -> list[float]:
    """Ascending omega_bar/2pi grid in MHz, bounded by the drive regime."""
    if not 0.0 < start_mhz <= stop_mhz:
        raise ValueError(f"need 0 < start <= stop, got ({start_mhz}, {stop_mhz})")
    if stop_mhz > SWEEP_MAX_OMEGA_BAR_MHZ * (1.0 + 1e-9):
        raise ValueError(
            f"stop {stop_mhz} MHz exceeds the blockade-regime bound "
            f"{SWEEP_MAX_OMEGA_BAR_MHZ} MHz"
        )
    if not step_mhz > 0:
        raise ValueError(f"step must be > 0, got {step_mhz}")
    # checked as a float: a subnormal step overflows the count to inf
    steps = (stop_mhz - start_mhz) / step_mhz + 1e-9
    if steps >= SWEEP_MAX_POINTS:
        # exact below 1e15; a tiny step would print hundreds of digits
        count = math.floor(steps) + 1 if steps < 1e15 else f"{steps:.3g}"
        raise ValueError(
            f"step {step_mhz} MHz gives {count} grid points, "
            f"more than the limit of {SWEEP_MAX_POINTS}"
        )
    return [start_mhz + i * step_mhz for i in range(int(steps) + 1)]


def sweep(
    params: PhysicalParams,
    *,
    start_mhz: float = 0.02,
    stop_mhz: float = SWEEP_MAX_OMEGA_BAR_MHZ,
    step_mhz: float = 0.02,
    omega0: float = TWO_PI * 10.0,
    ratio: float = 2.0,
    gate: str = "deutsch",
) -> list[SweepPoint]:
    """Budget sweep of the gate over omega_bar with omega3 = omega_bar/sqrt(2).

    Points are deterministic and ordered ascending in omega_bar.  A grid
    point's ``ValueError`` is raised again with the point in front.
    """
    points = []
    for f_mhz in sweep_grid(start_mhz, stop_mhz, step_mhz):
        try:
            drive = DriveParams.from_ratio(omega0, TWO_PI * f_mhz, ratio)
            cold = error_budget(drive, params, TAU_BY_TEMPERATURE["4.2K"], gate)
        except ValueError as exc:
            raise ValueError(f"at omega_bar/2pi = {f_mhz:.9g} MHz: {exc}") from exc
        # only the decay row reads the lifetime
        warm = replace(cold, decay=_decay(cold.mean_rydberg_time_us, TAU_BY_TEMPERATURE["300K"]))
        points.append(SweepPoint(f_mhz, drive, cold, warm))
    return points


def argmin_total(points: list[SweepPoint], temperature: str) -> SweepPoint:
    """Sweep point with the smallest total error at the given temperature."""
    if not points:
        raise ValueError("empty sweep")
    return min(points, key=lambda p: p.budget(temperature).total)
