"""Segment-exact propagation of pulse schedules with leakage, decay-loss,
Rydberg-dwell, and residue-phase diagnostics.

Each piecewise-constant segment is evolved by an exact matrix exponential, so
there is no integrator error to disentangle from physical imperfections.  The
Rydberg dwell is integrated in closed form in each segment's eigenbasis, so it
is exact per segment as well, at a cost independent of segment durations.
Decay is an effective non-Hermitian term -i/(2 tau) on every Rydberg
projector: lost norm equals the decay probability, branching is not tracked.

Sector packing, segment by segment: a coupling links ``|lower>`` and ``|r>``
of one atom, so each segment's Hamiltonian, decay term and Rydberg weights
are block-diagonal, each block a product of per-atom level groups (``r`` with
the lower levels that segment couples to it, every other level alone).  In
the paper's protocols each pulse drives one atom: a control pulse gives
blocks of 4, 2, 2 and 1 states per target level (2 and 1 for the CNOT), a
target pulse one 3-state Lambda block per control configuration, 51 blocks
of 4 states for the Deutsch gate.  Blocks that differ only in the ground
level of an atom the segment does not drive are equal for any parameters
(the Hamiltonian sees such an atom only through whether it is in ``r``),
so :func:`qcore.segment_layout` groups them into classes: 28 for the
Deutsch gate.  :func:`evolve` builds the full-space segment Hamiltonians
with one zero padding state, gathers one block per class from them into a
zero-padded ``(classes, m, m)`` stack, ``(28, 4, 4)`` for the Deutsch gate,
makes one batched exponential call on it, expands the steps to every block
through its class, scatters them back and chains them from the identity
on.  One padded index, cached with the classes and the Rydberg weights,
does both the gather and the scatter, and an empty schedule takes the same
path.  The padded stack costs less than the schedule-wide sectors (12 + 6 +
6 + 3 states for three atoms) would: a batched ``eigh`` of a ``(51, 4, 4)``
stack takes about a third of the time of one of a ``(5, 4, 12, 12)`` stack.

One decomposition per run: with the dwell on, one batched ``eigh`` of the
distinct Hermitian blocks feeds the dwell kernel and, handed to
:func:`qcore.matrix_exponential` as ``eig``, the unitary segment steps.  The
dwell takes each segment's start states from the running products of those
steps: the propagator chain itself with decay off, a chain of its own with
decay on (the Pade steps carry the decay, which the dwell leaves out).  The
computational columns of those products are gathered into each block's
slots, and the integral is a few batched products over the blocks of all
segments at once, with the kernel built once per class.
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


def _chain(steps: np.ndarray, layout, n_segments: int, dim: int) -> np.ndarray:
    """Scatter a stack of per-class steps into full-space segment steps with
    ``layout`` (a :class:`qcore.SegmentLayout`) and return the
    ``n_segments + 1`` running products from the identity on:
    ``products[k] = step[k - 1] @ ... @ step[0]`` is the propagator to the
    start of segment ``k``, and ``products[-1]`` the whole schedule's.  The
    padding state is sliced off, with the rounding-level values that the
    scatter writes into its row and column."""
    import numpy as np

    full = np.zeros((n_segments, dim + 1, dim + 1), dtype=complex)
    full.reshape(-1)[layout.index] = steps[layout.block_class]
    products = np.empty((n_segments + 1, dim, dim), dtype=complex)
    products[0] = _identity(dim)
    # the product to the end of the first segment is its step
    products[1:2] = full[:1, :dim, :dim]
    for k in range(1, n_segments):
        np.matmul(full[k, :dim, :dim], products[k], out=products[k + 1])
    return products


def _integrate_dwell(
    eigvals: np.ndarray,
    eigvecs: np.ndarray,
    durations: np.ndarray,
    weights: np.ndarray,
    block_class: np.ndarray,
    starts: np.ndarray,
) -> np.ndarray:
    """Exact integral of the total Rydberg population from each input.

    ``eigvals`` and ``eigvecs`` decompose the ``(n_classes, m, m)`` stack of
    distinct Hermitian blocks, ``durations`` and ``weights`` are each one's
    segment duration and the ``(n_classes, m)`` Rydberg counts of its slots,
    ``block_class`` is the class of every block, and ``starts[b]`` holds the
    ``(m, inputs)`` amplitudes of the inputs in the slots of block ``b`` when
    its segment starts, zero in the padding.  The kernel is built once per
    class; only the start states are projected block by block.  The
    integral stays in the padded blocks: ``eigh`` mixes a padding slot with
    a block state of the same eigenvalue (0, for a Lambda block's dark
    state), so only the two together span the block.  In a block's
    eigenbasis, with ``c = V^dag psi`` and ``M = V^dag W V``, the population
    is ``sum_jk conj(c_j) M_jk c_k exp(i (lam_j - lam_k) t)``, whose integral
    over [0, T] weights ``M_jk`` by ``T exp(i x_jk) sin(x_jk) / x_jk`` with
    ``x_jk = (lam_j - lam_k) T / 2``, which is ``T`` for degenerate
    eigenvalues.  The blocks of all segments go through the same batched
    products, so there is no loop over segments.
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
    weighted = ((adjoint * weights[:, None, :]) @ eigvecs) * kernel
    coeffs = adjoint[block_class] @ starts
    return np.sum(coeffs.conj() * (weighted[block_class] @ coeffs), axis=(0, 1)).real


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
    products = _chain(steps, layout, len(segments), dim)
    propagator = products[-1]
    dwell = None
    if opts.compute_dwell:
        # each segment starts from the running product of the unitary steps
        # before it: the propagator chain itself when decay is off
        if not hermitian:
            unitary = qcore.matrix_exponential(blocks, durations, hermitian=True, eig=eig)
            products = _chain(unitary, layout, len(segments), dim)
        # the inputs at each segment start, and a zero row for the padding
        starts = np.zeros((len(segments), dim + 1, len(comp)), dtype=complex)
        starts[:, :dim] = products[:-1, :, comp]
        totals = _integrate_dwell(
            *eig, durations, weights, layout.block_class,
            starts[layout.segment[:, None], layout.basis],
        )
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
