"""Pulse-level simulation and analytic error budgets for Rydberg-blockade
Deutsch, Toffoli, and CNOT gates on neutral atoms."""

from .budget import (
    ErrorBudget,
    SweepPoint,
    argmin_total,
    avg_dwell,
    blockade_error,
    decay_error,
    dwell_table,
    error_budget,
    gate_time,
    sweep,
    total_error,
    two_photon_error,
)
from .evolve import (
    SimulationOptions,
    SimulationResult,
    evolve,
)
from .ideal import cnot_ideal, deutsch_ideal, gate_fidelity, toffoli_ideal
from .model import (
    GateSchedule,
    PhysicalParams,
    PulseSegment,
    Transition,
    segment_hamiltonian,
    vdw_shift,
)
from .schedule import (
    DriveParams,
    cnot_schedule,
    deutsch_schedule,
    omegas_from_theta,
    phase_phi,
    solve_phase_matching,
    theta_from_omegas,
    toffoli_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "DriveParams",
    "ErrorBudget",
    "GateSchedule",
    "PhysicalParams",
    "PulseSegment",
    "SimulationOptions",
    "SimulationResult",
    "SweepPoint",
    "Transition",
    "argmin_total",
    "avg_dwell",
    "blockade_error",
    "cnot_ideal",
    "cnot_schedule",
    "decay_error",
    "deutsch_ideal",
    "deutsch_schedule",
    "dwell_table",
    "error_budget",
    "evolve",
    "gate_fidelity",
    "gate_time",
    "omegas_from_theta",
    "phase_phi",
    "segment_hamiltonian",
    "solve_phase_matching",
    "sweep",
    "theta_from_omegas",
    "toffoli_ideal",
    "toffoli_schedule",
    "total_error",
    "two_photon_error",
    "vdw_shift",
]
