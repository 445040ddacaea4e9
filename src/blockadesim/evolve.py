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
batched call, scatters the steps to every block of their class and chains
them from the identity on.  One padded index, cached with the classes and
the Rydberg weights, does both the gather and the scatter, and an empty
schedule takes the same path.

One decomposition per run: with the dwell on, one batched ``eigh`` of the
distinct Hermitian blocks gives the unitary steps (handed to
:func:`qcore.matrix_exponential` as ``eig``) and each class's dwell operator
``D = int_0^T U(t)^dag W U(t) dt``, which scatters to full-space segment
matrices exactly as the steps do.  An input's dwell is the sum over
segments of ``D``'s expectation in its state at the segment start, a column
of the running products of the unitary steps: the propagator chain itself
with decay off, a chain of its own with decay on (the Pade steps carry the
decay, which the dwell leaves out).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .model import GateSchedule, PhysicalParams, computational_labels, segment_hamiltonian
from .schedule import residue_phase_over

if TYPE_CHECKING:
    import numpy as np


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


def _wrap_angle(angle: float) -> float:
    wrapped = math.fmod(angle + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


@functools.cache
def _identity(dim: int) -> np.ndarray:
    import numpy as np

    eye = np.eye(dim, dtype=complex)
    eye.flags.writeable = False
    return eye


def _scatter(per_class: np.ndarray, layout, shape: tuple[int, ...]) -> np.ndarray:
    """The full-space segment matrices that a stack of per-class blocks fills
    through ``layout`` (a :class:`qcore.SegmentLayout`), in a zero stack of
    the padded ``shape`` ``(segments, 3**n + 1, 3**n + 1)``: every block
    takes its class's entries, and the padding state is sliced off with
    whatever the blocks' padding slots write into its row and column."""
    import numpy as np

    full = np.zeros(shape, dtype=complex)
    full.reshape(-1)[layout.index] = per_class[layout.block_class]
    return full[:, :-1, :-1]


def _chain(steps: np.ndarray) -> np.ndarray:
    """The ``len(steps) + 1`` running products of full-space segment steps
    from the identity on: ``products[k] = steps[k - 1] @ ... @ steps[0]`` is
    the propagator to the start of segment ``k``, and ``products[-1]`` the
    whole schedule's."""
    import numpy as np

    n_segments, dim = len(steps), steps.shape[-1]
    products = np.empty((n_segments + 1, dim, dim), dtype=complex)
    products[0] = _identity(dim)
    # the product to the end of the first segment is its step
    products[1:2] = steps[:1]
    for k in range(1, n_segments):
        np.matmul(steps[k], products[k], out=products[k + 1])
    return products


def _dwell_operators(
    eigvals: np.ndarray, eigvecs: np.ndarray, durations: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Each block's dwell operator ``D = int_0^T U(t)^dag W U(t) dt``, whose
    expectation in a state at its segment's start is that state's Rydberg
    dwell over the segment (Van Loan, IEEE Trans. Autom. Control 23, 395
    (1978)).

    ``eigvals`` and ``eigvecs`` decompose the ``(n_classes, m, m)`` stack of
    distinct Hermitian blocks, ``durations`` and ``weights`` are each one's
    segment duration and the ``(n_classes, m)`` Rydberg counts ``W`` of its
    slots.  With ``M = V^dag W V``, ``D = V (M o K) V^dag``, where ``K_jk =
    T exp(i x_jk) sin(x_jk) / x_jk`` with ``x_jk = (lam_j - lam_k) T / 2`` is
    the integral of ``exp(i (lam_j - lam_k) t)`` over [0, T], ``T`` for
    degenerate eigenvalues.  ``D`` is the same for any eigenbasis inside a
    degenerate eigenspace, and its padding row and column vanish to rounding.
    """
    import numpy as np

    adjoint = eigvecs.conj().swapaxes(-1, -2)
    t = durations[:, None, None]
    half = (eigvals[..., :, None] - eigvals[..., None, :]) * (0.5 * t)
    sin = np.sin(half)
    scale = t * np.divide(sin, half, out=np.ones_like(half), where=half != 0)
    kernel = np.empty(half.shape, dtype=complex)
    kernel.real = np.cos(half) * scale
    kernel.imag = sin * scale
    return eigvecs @ (((adjoint * weights[:, None, :]) @ eigvecs) * kernel) @ adjoint


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
    durations = np.array([seg.duration for seg in segments])[layout.segment[distinct]]
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
    products = _chain(_scatter(steps, layout, stack.shape))
    propagator = products[-1]
    dwell = None
    if opts.compute_dwell:
        # each segment starts from the running product of the unitary steps
        # before it: the propagator chain itself when decay is off
        if not hermitian:
            unitary = qcore.matrix_exponential(blocks, durations, hermitian=True, eig=eig)
            products = _chain(_scatter(unitary, layout, stack.shape))
        operators = _scatter(_dwell_operators(*eig, durations, weights), layout, stack.shape)
        starts = products[:-1, :, comp]
        totals = np.sum(starts.conj() * (operators @ starts), axis=(0, 1)).real
        dwell = dict(zip(labels, totals.tolist()))

    # Residue phase on the doubly excited controls, predicted from the dwell
    # span between the two control pulses.  The simulated phase additionally
    # contains the ramp-through contribution of the control pulses themselves,
    # which is reported, not corrected.
    residue = params.control_residue if opts.cc_interaction == "physical" else 0.0
    phase_correction = residue_phase_over(schedule.interior_duration, residue)
    simulated_phase = float(np.angle(propagator[comp[0], comp[0]]))
    phase_mismatch = _wrap_angle(simulated_phase - phase_correction)
    if opts.frame_correction and phase_correction != 0.0:
        # inputs with both controls in g0 occupy the first two computational slots
        propagator[:, comp[:2]] *= np.exp(-1j * phase_correction)

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
