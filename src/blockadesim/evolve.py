"""Segment-exact propagation of pulse schedules with leakage, decay-loss,
Rydberg-dwell, and residue-phase diagnostics.

Each piecewise-constant segment is evolved by an exact matrix exponential, so
there is no integrator error to disentangle from physical imperfections.  The
Rydberg dwell is integrated in closed form in each segment's eigenbasis, so it
is exact per segment as well, at a cost independent of segment durations.
Decay is an effective non-Hermitian term -i/(2 tau) on every Rydberg
projector: lost norm equals the decay probability, branching is not tracked.

Sector packing: a coupling links ``|lower>`` and ``|r>`` of one atom, so the
Hamiltonians, the decay term and the Rydberg weights are block-diagonal over
the connected components of the schedule's couplings (:func:`qcore.sectors`).
In the paper's protocols every control pulse drives ``g0 <-> r`` only, which
gives blocks of 12, 6, 6 and 3 states for three atoms and 6 and 3 for two.
:func:`evolve` gathers every segment's blocks into one zero-padded
``(segments, blocks, m, m)`` stack, makes one batched exponential call on it,
chains the segments with batched products and scatters the blocks into the
full propagator once.  The dwell integral runs on the same stack, with one
batched eigendecomposition for all segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .model import GateSchedule, PhysicalParams, segment_hamiltonian


@dataclass(frozen=True)
class SimulationOptions:
    """Switches for :func:`evolve`.

    decay_tau: Rydberg lifetime in us for effective decay, or None for
        unitary evolution.
    cc_interaction: "physical" keeps the control-control residue shift,
        "none" zeroes it (idealized pair-engineering limit).
    frame_correction: remove the predicted residue phase from the outputs of
        the both-controls-ground inputs before any comparison.
    compute_dwell: skip the (closed-form, per-segment exact) dwell integral
        entirely when False.
    """

    decay_tau: float | None = None
    cc_interaction: str = "physical"
    frame_correction: bool = False
    compute_dwell: bool = True


@dataclass(frozen=True)
class SimulationResult:
    """Propagator and per-input diagnostics from one schedule evolution.

    Per-input maps are keyed by computational bit strings ("000" ... "111").
    ``leakage_per_input`` is 1 minus the population retained in the
    computational subspace; ``norm_loss_per_input`` is 1 minus the squared
    output norm (zero without decay); ``phase_correction`` is the residue
    phase removed when frame correction is on; ``phase_mismatch`` is the
    simulated-minus-predicted residue phase on the all-zeros input, wrapped
    to (-pi, pi].
    """

    full_propagator: np.ndarray
    computational_block: np.ndarray
    leakage_per_input: dict[str, float]
    dwell_per_input: dict[str, float] | None
    norm_loss_per_input: dict[str, float]
    phase_correction: float
    phase_mismatch: float


def computational_block(propagator: np.ndarray, n_atoms: int) -> np.ndarray:
    """Restrict a full-space propagator to the computational basis (no
    renormalization)."""
    propagator = np.asarray(propagator)
    if propagator.shape != (3**n_atoms, 3**n_atoms):
        raise ValueError(
            f"propagator shape {propagator.shape} does not match {n_atoms} atoms"
        )
    comp = qcore.computational_indices(n_atoms)
    return propagator[np.ix_(comp, comp)]


def _wrap_angle(angle: float) -> float:
    wrapped = math.fmod(angle + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def _integrate_dwell(
    blocks: np.ndarray, durations: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Exact integral of the total Rydberg population from each basis state
    of each block.

    ``blocks`` is the ``(segments, n_blocks, m, m)`` stack of Hermitian
    segment blocks and ``weights`` the ``(n_blocks, m)`` Rydberg counts; the
    result's entry ``[b, j]`` is the dwell of the input in slot ``j`` of block
    ``b``.  In a segment's eigenbasis, with ``c = V^dag psi`` and
    ``M = V^dag W V``, the population is
    ``sum_jk conj(c_j) M_jk c_k exp(i (lam_j - lam_k) t)``, whose integral
    over [0, T] weights ``M_jk`` by ``T exp(i d_jk / 2) sinc(d_jk / 2)`` with
    ``d_jk = (lam_j - lam_k) T``.  ``np.sinc`` is 1 at 0, so degenerate
    eigenvalues need no special case.
    """
    eigvals, eigvecs = np.linalg.eigh(blocks)
    adjoint = eigvecs.conj().swapaxes(-1, -2)
    t = durations[:, None, None, None]
    phase = (eigvals[..., :, None] - eigvals[..., None, :]) * t
    kernel = t * np.exp(0.5j * phase) * np.sinc(phase / (2.0 * np.pi))
    weighted = ((adjoint * weights[:, None, :]) @ eigvecs) * kernel
    steps = eigvecs * np.exp(-1j * eigvals * durations[:, None, None])[..., None, :]
    coeffs = adjoint[0]  # each block starts from its identity
    totals = np.zeros(weights.shape)
    for s in range(len(durations)):
        if s:
            coeffs = adjoint[s] @ (steps[s - 1] @ coeffs)
        totals += np.sum(coeffs.conj() * (weighted[s] @ coeffs), axis=-2).real
    return totals


def evolve(
    schedule: GateSchedule,
    params: PhysicalParams,
    options: SimulationOptions | None = None,
) -> SimulationResult:
    """Propagate a schedule and collect the gate block and diagnostics.

    Parameters
    ----------
    schedule : GateSchedule
        Pulse sequence; register size must match ``params.n_atoms``.
    params : PhysicalParams
        Geometry and atomic constants.
    options : SimulationOptions, optional
        Decay, residue-interaction, frame-correction, and dwell settings.

    Returns
    -------
    SimulationResult
        Full propagator (product of segment exponentials, last segment
        leftmost), its computational block, and per-input diagnostics.
    """
    opts = options or SimulationOptions()
    n = schedule.n_atoms
    if n != params.n_atoms:
        raise ValueError(
            f"schedule register ({n}) does not match params register ({params.n_atoms})"
        )
    if opts.decay_tau is not None and not opts.decay_tau > 0:
        raise ValueError(f"decay_tau must be > 0, got {opts.decay_tau}")

    dim = 3**n
    hamiltonians = [
        segment_hamiltonian(seg, params, cc_interaction=opts.cc_interaction)
        for seg in schedule.segments
    ]
    durations = np.array([seg.duration for seg in schedule.segments])
    couplings = frozenset(
        (tr.atom, tr.lower) for seg in schedule.segments for tr in seg.transitions
    )
    index, valid = qcore.sectors(n, couplings)
    pairs = valid[:, :, None] & valid[:, None, :]
    rows = np.broadcast_to(index[:, :, None], pairs.shape)[pairs]
    cols = np.broadcast_to(index[:, None, :], pairs.shape)[pairs]
    weights = np.where(valid, qcore.rydberg_weights(n)[index], 0.0)

    propagator = np.eye(dim, dtype=complex)
    if hamiltonians:
        blocks = np.zeros((len(durations), *pairs.shape), dtype=complex)
        blocks[:, pairs] = np.stack(hamiltonians)[:, rows, cols]
        h_eff = blocks
        if opts.decay_tau is not None:
            # -i/(2 tau) on every Rydberg projector
            decay = -0.5j / opts.decay_tau * weights
            h_eff = blocks + decay[..., None] * np.eye(valid.shape[1])
        steps = qcore.matrix_exponential(
            h_eff, durations[:, None], hermitian=opts.decay_tau is None
        )
        product = steps[0]
        for step in steps[1:]:
            product = step @ product
        propagator = np.zeros((dim, dim), dtype=complex)
        propagator[rows, cols] = product[pairs]

    comp = qcore.computational_indices(n)
    labels = qcore.computational_labels(n)

    # Residue phase on the doubly excited controls, predicted from the dwell
    # span between the two control pulses.  The simulated phase additionally
    # contains the ramp-through contribution of the control pulses themselves,
    # which is reported, not corrected.
    residue = 0.0
    if opts.cc_interaction == "physical":
        residue = params.control_residue
    phase_correction = -schedule.interior_duration * residue
    simulated_phase = float(np.angle(propagator[comp[0], comp[0]]))
    phase_mismatch = _wrap_angle(simulated_phase - phase_correction)
    if opts.frame_correction and phase_correction != 0.0:
        # inputs with both controls in g0 occupy the first two computational slots
        propagator[:, comp[:2]] *= np.exp(-1j * phase_correction)

    columns = propagator[:, comp]
    comp_population = np.sum(np.abs(columns[comp, :]) ** 2, axis=0)
    total_population = np.sum(np.abs(columns) ** 2, axis=0)
    # rounding can push 1 - p a few ulp below zero
    leakage = {lab: max(0.0, float(1.0 - p)) for lab, p in zip(labels, comp_population)}
    norm_loss = {lab: float(1.0 - p) for lab, p in zip(labels, total_population)}

    dwell = None
    if opts.compute_dwell and hamiltonians:
        totals = _integrate_dwell(blocks, durations, weights)
        slot = np.empty(dim, dtype=np.intp)
        slot[index[valid]] = np.flatnonzero(valid)
        dwell = {lab: float(t) for lab, t in zip(labels, totals.ravel()[slot[comp]])}
    elif opts.compute_dwell:
        dwell = {lab: 0.0 for lab in labels}

    return SimulationResult(
        full_propagator=propagator,
        computational_block=computational_block(propagator, n),
        leakage_per_input=leakage,
        dwell_per_input=dwell,
        norm_loss_per_input=norm_loss,
        phase_correction=phase_correction,
        phase_mismatch=phase_mismatch,
    )


def rydberg_dwell(
    schedule: GateSchedule,
    params: PhysicalParams,
    input_state: str,
    *,
    cc_interaction: str = "physical",
) -> float:
    """Integrated time (us) the register spends in Rydberg levels for one
    computational input, decay off.

    ``input_state`` is a bit string such as "010" (control 1, control 2,
    target order).  The value is that input's entry of :func:`evolve`'s
    ``dwell_per_input``.
    """
    n = schedule.n_atoms
    bits = str(input_state)
    if len(bits) != n or any(b not in "01" for b in bits):
        raise ValueError(f"input_state must be {n} bits of 0/1, got {input_state!r}")
    options = SimulationOptions(cc_interaction=cc_interaction)
    return evolve(schedule, params, options).dwell_per_input[bits]
