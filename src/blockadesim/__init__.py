"""Pulse-level simulation and analytic error budgets for Rydberg-blockade
Deutsch, Toffoli, and CNOT gates on neutral atoms.

Only the simulator computes with numpy.  ``qcore`` imports it at the top;
``model``, ``evolve`` and ``ideal`` import numpy, and ``qcore`` where they
need it, inside the functions that use them.  So importing the package, the
closed-form budget and the CLI's ``budget``, ``sweep``, ``synth`` and
``phase`` subcommands load no numpy and skip its import at process start.
"""

from .budget import (
    ErrorBudget,
    SweepPoint,
    argmin_total,
    avg_dwell,
    blockade_error,
    dwell_table,
    error_budget,
    sweep,
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
    "deutsch_ideal",
    "deutsch_schedule",
    "dwell_table",
    "error_budget",
    "evolve",
    "gate_fidelity",
    "omegas_from_theta",
    "segment_hamiltonian",
    "solve_phase_matching",
    "sweep",
    "theta_from_omegas",
    "toffoli_ideal",
    "toffoli_schedule",
    "vdw_shift",
]
