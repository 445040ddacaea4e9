"""Analytic error budget for the five-pulse protocol and parameter sweeps.

Three error mechanisms are budgeted: Rydberg decay (mean dwell time over
lifetime), the residue control-control shift that hampers the simultaneous
control excitation, and population leakage through blockade-shift two-photon
transitions.  All formulas are closed-form, so sweeps are instantaneous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import PhysicalParams
from .schedule import SQRT2, DriveParams, phase_phi

TWO_PI = 2.0 * math.pi

# Cs 84p3/2 lifetime at cryogenic and room temperature, us.
TAU_BY_TEMPERATURE = {"4.2K": 1590.0, "300K": 313.0}

SWEEP_MAX_OMEGA_BAR_MHZ = 2.3

# Largest grid sweep_grid builds.  A full sweep costs about 26 us and 1 KB
# per point, so this is about 2.6 s and 100 MB.
SWEEP_MAX_POINTS = 100_000


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


def gate_time(drive: DriveParams) -> float:
    """Minimal five-pulse gate time 2pi (1/w0 + 2/wbar + 1/(sqrt(2) w3)), us."""
    return TWO_PI * (
        1.0 / drive.omega0
        + 2.0 / drive.omega_bar
        + 1.0 / (SQRT2 * drive.omega3)
    )


def control_dwell(drive: DriveParams) -> float:
    """Rydberg time of one control excited for the whole interior:
    pi/w0 + 2 * 2pi/wbar + sqrt(2) pi/w3, us."""
    return (
        math.pi / drive.omega0
        + 4.0 * math.pi / drive.omega_bar
        + SQRT2 * math.pi / drive.omega3
    )


def dwell_table(drive: DriveParams) -> dict[str, float]:
    """Closed-form Rydberg dwell time (us) for each computational input."""
    t_x = control_dwell(drive)
    wbar = drive.omega_bar
    u2 = (drive.omega1 / wbar) ** 2
    v2 = (drive.omega2 / wbar) ** 2
    tail = math.pi / (2.0 * SQRT2 * drive.omega3)
    t_110 = (math.pi / wbar) * (u2 + v2 * (v2 - 3.0 * u2) ** 2) + tail
    t_111 = (math.pi / wbar) * (v2 + u2 * (u2 - 3.0 * v2) ** 2) + tail
    return {
        "000": 2.0 * t_x,
        "001": 2.0 * t_x,
        "010": t_x,
        "011": t_x,
        "100": t_x,
        "101": t_x,
        "110": t_110,
        "111": t_111,
    }


def avg_dwell(drive: DriveParams) -> float:
    """Mean dwell over the eight inputs:
    T_x + pi/(4 wbar) + pi/(8 sqrt(2) w3), us.

    Equality with the mean of :func:`dwell_table` rests on the identity
    w2^2 (w2^2 - 3 w1^2)^2 + w1^2 (w1^2 - 3 w2^2)^2 = (w1^2 + w2^2)^3.
    """
    return (
        control_dwell(drive)
        + math.pi / (4.0 * drive.omega_bar)
        + math.pi / (8.0 * SQRT2 * drive.omega3)
    )


def decay_error(drive: DriveParams, tau: float) -> float:
    """Decay probability averaged over inputs: mean dwell / tau."""
    if not tau > 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    return avg_dwell(drive) / tau


def blockade_error(v: float, omega0: float) -> float:
    """Imperfect simultaneous control excitation: 2 (v/64)^2 / omega0^2."""
    if not omega0 > 0:
        raise ValueError(f"omega0 must be > 0, got {omega0}")
    return 2.0 * (v / 64.0) ** 2 / omega0**2


def two_photon_error(drive: DriveParams, v: float) -> float:
    """Mean population loss through the six blockade-shift two-photon
    transitions.

    The doubly excited-control rows see an effective detuning of 4v, the
    singly excited rows see 2v.  The residue correction v/32 to the 4v is
    dropped: it is 1/128 of that detuning and moves only the quarter-weight
    strong-row term.
    """
    if v == 0:
        raise ValueError("v must be nonzero")
    t_lambda = 2.0 * math.pi / drive.omega_bar
    t_swap = SQRT2 * math.pi / drive.omega3
    strong = 4.0 * v
    product = drive.omega1 * drive.omega2
    strong_args = (product * t_lambda / strong, drive.omega3**2 * t_swap / (2.0 * strong))
    weak_args = (product * t_lambda / (2.0 * v), drive.omega3**2 * t_swap / (4.0 * v))
    if not all(math.isfinite(x) for x in strong_args + weak_args):
        raise ValueError(
            f"two-photon phase is not finite: the blockade shift {v:.3g} rad/us "
            "is too small for the drive"
        )
    loss_strong = sum(math.sin(x) ** 2 for x in strong_args)
    loss_weak = sum(math.sin(x) ** 2 for x in weak_args)
    return 0.25 * loss_strong + 0.5 * loss_weak


def error_budget(
    drive: DriveParams, params: PhysicalParams, tau: float
) -> ErrorBudget:
    """Assemble the full analytic budget at an explicit lifetime (us)."""
    v = params.blockade
    return ErrorBudget(
        gate_time_us=gate_time(drive),
        control_dwell_us=control_dwell(drive),
        mean_rydberg_time_us=avg_dwell(drive),
        residue_phase_rad=phase_phi(drive, v),
        decay=decay_error(drive, tau),
        blockade=blockade_error(v, drive.omega0),
        two_photon=two_photon_error(drive, v),
    )


def total_error(
    drive: DriveParams, params: PhysicalParams, temperature: str
) -> ErrorBudget:
    """Budget with the lifetime picked by temperature ("4.2K" or "300K")."""
    try:
        tau = TAU_BY_TEMPERATURE[temperature]
    except KeyError:
        raise ValueError(
            f"temperature must be one of {sorted(TAU_BY_TEMPERATURE)}, got {temperature!r}"
        ) from None
    return error_budget(drive, params, tau)


@dataclass(frozen=True)
class SweepPoint:
    """Budget at one omega_bar grid value, at both reference temperatures."""

    omega_bar_mhz: float
    drive: DriveParams
    budget_4k: ErrorBudget
    budget_300k: ErrorBudget


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
        count = math.floor(steps) + 1 if math.isfinite(steps) else "inf"
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
) -> list[SweepPoint]:
    """Budget sweep over omega_bar with omega3 = omega_bar/sqrt(2).

    Points are deterministic and ordered ascending in omega_bar.
    """
    points = []
    for f_mhz in sweep_grid(start_mhz, stop_mhz, step_mhz):
        omega_bar = TWO_PI * f_mhz
        drive = DriveParams.from_ratio(omega0, omega_bar, ratio)
        points.append(
            SweepPoint(
                omega_bar_mhz=f_mhz,
                drive=drive,
                budget_4k=error_budget(drive, params, TAU_BY_TEMPERATURE["4.2K"]),
                budget_300k=error_budget(drive, params, TAU_BY_TEMPERATURE["300K"]),
            )
        )
    return points


def argmin_total(points: list[SweepPoint], temperature: str) -> SweepPoint:
    """Sweep point with the smallest total error at the given temperature."""
    if not points:
        raise ValueError("empty sweep")
    if temperature == "4.2K":
        return min(points, key=lambda p: p.budget_4k.total)
    if temperature == "300K":
        return min(points, key=lambda p: p.budget_300k.total)
    raise ValueError(
        f"temperature must be one of {sorted(TAU_BY_TEMPERATURE)}, got {temperature!r}"
    )
