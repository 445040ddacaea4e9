"""Segment-exact propagation of pulse schedules with leakage, decay-loss,
Rydberg-dwell, and residue-phase diagnostics.

Each piecewise-constant segment is evolved by an exact matrix exponential, so
there is no integrator error to disentangle from physical imperfections.  The
Rydberg dwell is integrated in closed form per segment as well, at a cost
independent of segment durations.  Decay is an effective non-Hermitian term
-i/(2 tau) on every Rydberg projector: lost norm equals the decay
probability, branching is not tracked.

Sector packing, segment by segment: a coupling links ``|lower>`` and ``|r>``
of one atom, so each segment's Hamiltonian, decay term and Rydberg weights
are block-diagonal, each block a product of per-atom level groups.  Blocks
that differ only in the ground level of an atom the segment does not drive
are equal for any parameters, so :func:`qcore.segment_layout` groups them
into classes: 28 of the Deutsch gate's 51 blocks of up to 4 states.
:func:`evolve` builds the full-space segment Hamiltonians with one zero
padding state, gathers one block per class into a zero-padded ``(classes,
m, m)`` stack, ``(28, 4, 4)`` for the Deutsch gate, exponentiates it in one
batched call, scatters the steps to every block of their class
(:func:`qcore.scatter`) and chains them from the identity on
(:func:`qcore.chain`).  One padded index, cached with the classes and the
Rydberg weights, does both the gather and the scatter, and an empty
schedule takes the same path.

One decomposition per run: with the dwell on, one batched ``eigh`` of the
distinct Hermitian blocks gives the unitary steps (handed to
:func:`qcore.matrix_exponential` as ``eig``) and each class's dwell operator
``D = int_0^T U(t)^dag W U(t) dt`` (:func:`qcore.dwell_operators`), which
scatters to full-space segment matrices exactly as the steps do.  An
input's dwell is the sum over segments of ``D``'s expectation in its state
at the segment start, a column of the running products of the unitary
steps: the propagator chain itself with decay off, a chain of its own with
decay on (the Pade steps carry the decay, which the dwell leaves out).

This module holds the options, the result and :func:`evolve`.  The dense
kernels live in :mod:`qcore`, which imports numpy at the top, so
:func:`evolve` imports both inside the function and importing this module
loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .model import (GateSchedule, PhysicalParams, computational_labels, control_shift,
                    segment_hamiltonian)
from .schedule import residue_phase_over

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class SimulationOptions:
    """Switches for :func:`evolve`.

    decay_tau: Rydberg lifetime in us for effective decay, or None for
        unitary evolution.
    cc_interaction: one of :data:`model.CC_INTERACTIONS`; "physical" keeps
        the control-control residue shift, "none" zeroes it (idealized
        pair-engineering limit), see :func:`model.control_shift`.
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
    to [-pi, pi].
    """

    full_propagator: np.ndarray
    computational_block: np.ndarray
    leakage_per_input: dict[str, float]
    dwell_per_input: dict[str, float] | None
    norm_loss_per_input: dict[str, float]
    phase_correction: float
    phase_mismatch: float


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
    import numpy as np

    from . import qcore

    opts = options or SimulationOptions()
    n = schedule.n_atoms
    if n != params.n_atoms:
        raise ValueError(
            f"schedule register ({n}) does not match params register ({params.n_atoms})"
        )
    if opts.decay_tau is not None and not opts.decay_tau > 0:
        raise ValueError(f"decay_tau must be > 0, got {opts.decay_tau}")
    # checked here, since an empty schedule builds no Hamiltonian
    residue = control_shift(params, opts.cc_interaction)

    dim = 3**n
    comp = qcore.computational_indices(n)
    labels = computational_labels(n)
    segments = schedule.segments
    layout = qcore.segment_layout(n, tuple(
        frozenset((tr.atom, tr.lower) for tr in seg.transitions) for seg in segments
    ))
    # the full-space Hamiltonians with a zero padding state, see SegmentLayout
    stack = np.zeros((len(segments), dim + 1, dim + 1), dtype=complex)
    for s, seg in enumerate(segments):
        stack[s, :dim, :dim] = segment_hamiltonian(
            seg, params, cc_interaction=opts.cc_interaction
        )
    # blocks of one class are equal, so only one of each is exponentiated
    distinct = layout.representative
    blocks = stack.reshape(-1)[layout.index[distinct]]
    seg_durations = tuple(seg.duration for seg in segments)
    durations = np.array(seg_durations)[layout.segment[distinct]]
    weights = layout.weights[distinct]
    hermitian = opts.decay_tau is None
    h_eff = blocks
    if not hermitian:
        # a Python float, so a tiny lifetime overflows to inf without a
        # numpy warning; qcore.matrix_exponential checks the phase
        rate = 0.5 / opts.decay_tau * float(weights.max(initial=0.0))
        if not math.isfinite(rate):
            raise ValueError(
                f"decay rate 0.5 * max_weight / tau overflows at tau = {opts.decay_tau} us"
            )
        # -i/(2 tau) on every Rydberg projector
        decay = -0.5j / opts.decay_tau * weights
        h_eff = blocks + decay[..., None] * np.eye(blocks.shape[-1])
    # one decomposition serves the unitary steps and the dwell
    eig = np.linalg.eigh(blocks) if opts.compute_dwell else None
    steps = qcore.matrix_exponential(
        h_eff, durations, hermitian=hermitian, eig=eig if hermitian else None
    )
    products = qcore.chain(qcore.scatter(steps, layout, stack.shape))
    propagator = products[-1]
    dwell = None
    if opts.compute_dwell:
        # each segment starts from the running product of the unitary steps
        # before it: the propagator chain itself when decay is off
        if not hermitian:
            unitary = qcore.matrix_exponential(blocks, durations, hermitian=True, eig=eig)
            products = qcore.chain(qcore.scatter(unitary, layout, stack.shape))
        operators = qcore.scatter(qcore.dwell_operators(*eig, durations, weights),
                                  layout, stack.shape)
        starts = products[:-1, :, comp]
        totals = np.sum(starts.conj() * (operators @ starts), axis=(0, 1)).real
        dwell = dict(zip(labels, totals.tolist()))

    # Residue phase on the doubly excited controls, predicted from the dwell
    # span between the two control pulses.  The simulated phase additionally
    # contains the ramp-through contribution of the control pulses themselves,
    # which is reported, not corrected.
    phase_correction = residue_phase_over(seg_durations, residue)
    correction = np.exp(-1j * phase_correction)
    # np.angle wraps the product itself, so no large phase is subtracted
    phase_mismatch = float(np.angle(propagator[comp[0], comp[0]] * correction))
    if opts.frame_correction and phase_correction != 0.0:
        # inputs with both controls in g0 occupy the first two computational slots
        propagator[:, comp[:2]] *= correction

    columns = propagator[:, comp]
    block = columns[comp]
    comp_population = np.sum(np.abs(block) ** 2, axis=0).tolist()
    total_population = np.sum(np.abs(columns) ** 2, axis=0).tolist()
    # rounding can push 1 - p a few ulp below zero
    leakage = {lab: max(0.0, 1.0 - p) for lab, p in zip(labels, comp_population)}
    norm_loss = {lab: 1.0 - p for lab, p in zip(labels, total_population)}

    return SimulationResult(
        full_propagator=propagator,
        computational_block=block,
        leakage_per_input=leakage,
        dwell_per_input=dwell,
        norm_loss_per_input=norm_loss,
        phase_correction=phase_correction,
        phase_mismatch=phase_mismatch,
    )
