"""Segment-exact propagation of pulse schedules with leakage, decay-loss,
Rydberg-dwell, and residue-phase diagnostics.

Each piecewise-constant segment is evolved by an exact matrix exponential, so
there is no integrator error to disentangle from physical imperfections.  The
Rydberg dwell is integrated in closed form in each segment's eigenbasis, so it
is exact per segment as well, at a cost independent of segment durations.
Decay is an effective non-Hermitian term -i/(2 tau) on every Rydberg
projector: lost norm equals the decay probability, branching is not tracked.

Sector packing: a coupling links ``|lower>`` and ``|r>`` of one atom, so the
Hamiltonians, the decay term and the Rydberg weights are block-diagonal, each
block a product of per-atom level groups (``r`` with the lower levels the
schedule couples to it, every other level alone; :func:`qcore.sectors`).
In the paper's protocols every control pulse drives ``g0 <-> r`` only, which
gives blocks of 12, 6, 6 and 3 states for three atoms and 6 and 3 for two.
:func:`evolve` gathers every segment's blocks into one zero-padded
``(segments, blocks, m, m)`` stack, makes one batched exponential call on it,
chains the segments with batched products and scatters the blocks into the
full propagator once.  The gather and scatter tables come cached from
:func:`qcore.sector_layout`.

One decomposition per run: with the dwell on, one batched ``eigh`` of the
Hermitian stack feeds both the dwell kernel and, with decay off, the unitary
segment steps (handed to :func:`qcore.matrix_exponential` as ``eig``).  The
dwell takes each segment's start states from the running products of the
unitary steps: the propagator chain itself with decay off, or the steps
built from the same ``eigh`` with decay on (the Pade steps carry the decay,
which the dwell leaves out).  It is then a few batched products over all
segments at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .model import MAX_SEGMENT_PHASE, GateSchedule, PhysicalParams, segment_hamiltonian


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


def _running_products(steps: np.ndarray) -> np.ndarray:
    """``products[k] = steps[k] @ ... @ steps[0]`` for a stack of segment
    steps, last segment leftmost."""
    products = np.empty_like(steps)
    products[0] = steps[0]
    for k in range(1, len(steps)):
        products[k] = steps[k] @ products[k - 1]
    return products


def _integrate_dwell(
    eigvals: np.ndarray,
    eigvecs: np.ndarray,
    durations: np.ndarray,
    weights: np.ndarray,
    products: np.ndarray,
) -> np.ndarray:
    """Exact integral of the total Rydberg population from each basis state
    of each block.

    ``eigvals`` and ``eigvecs`` decompose the ``(segments, n_blocks, m, m)``
    stack of Hermitian segment blocks, ``weights`` are the ``(n_blocks, m)``
    Rydberg counts, and ``products[s]`` the unitary evolution through
    segment ``s``, so segment ``s`` starts from ``products[s - 1]`` (the
    first from the identity).  The result's entry ``[b, j]`` is the dwell of
    the input in slot ``j`` of block ``b``.  In a segment's eigenbasis, with
    ``c = V^dag psi`` and ``M = V^dag W V``, the population is
    ``sum_jk conj(c_j) M_jk c_k exp(i (lam_j - lam_k) t)``, whose integral
    over [0, T] weights ``M_jk`` by ``T exp(i x_jk) sin(x_jk) / x_jk`` with
    ``x_jk = (lam_j - lam_k) T / 2``, which is ``T`` for degenerate
    eigenvalues.  All segments go through the same batched products, so
    there is no loop over segments.
    """
    adjoint = eigvecs.conj().swapaxes(-1, -2)
    t = durations[:, None, None, None]
    half = (eigvals[..., :, None] - eigvals[..., None, :]) * (0.5 * t)
    sin = np.sin(half)
    scale = t * np.divide(sin, half, out=np.ones_like(half), where=half != 0)
    kernel = np.empty(half.shape, dtype=complex)
    kernel.real = np.cos(half) * scale
    kernel.imag = sin * scale
    weighted = ((adjoint * weights[:, None, :]) @ eigvecs) * kernel
    coeffs = np.empty_like(adjoint)
    coeffs[0] = adjoint[0]
    np.matmul(adjoint[1:], products[:-1], out=coeffs[1:])
    return np.sum(coeffs.conj() * (weighted @ coeffs), axis=(0, -2)).real


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
    layout = qcore.sector_layout(n, couplings)

    propagator = np.eye(dim, dtype=complex)
    hermitian = opts.decay_tau is None
    if hamiltonians:
        blocks = np.zeros((len(durations), *layout.pairs.shape), dtype=complex)
        blocks[:, layout.pairs] = np.stack(hamiltonians)[:, layout.rows, layout.cols]
        h_eff = blocks
        if not hermitian:
            # Python floats, so a tiny lifetime overflows to inf without a
            # numpy warning and fails the check
            rate = 0.5 / opts.decay_tau * float(layout.weights.max())
            scales = np.abs(blocks).max(axis=(1, 2, 3)).tolist()
            phase = max((h + rate) * t for h, t in zip(scales, durations.tolist()))
            if not phase <= MAX_SEGMENT_PHASE:
                raise ValueError(
                    "segment phase (max|H| + 0.5 * max_weight / tau) * duration = "
                    f"{phase:.3g} rad exceeds {MAX_SEGMENT_PHASE:.0e}; check the "
                    "lifetime, spacing and drive amplitudes"
                )
            # -i/(2 tau) on every Rydberg projector
            decay = -0.5j / opts.decay_tau * layout.weights
            h_eff = blocks + decay[..., None] * np.eye(blocks.shape[-1])
        # one decomposition serves the unitary steps and the dwell;
        # segment_hamiltonian's phase guard has checked every block finite
        eig = np.linalg.eigh(blocks) if opts.compute_dwell else None
        steps = qcore.matrix_exponential(
            h_eff, durations[:, None], hermitian=hermitian, eig=eig if hermitian else None
        )
        products = _running_products(steps)
        propagator = np.zeros((dim, dim), dtype=complex)
        propagator[layout.rows, layout.cols] = products[-1][layout.pairs]

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
        # each segment starts from the running product of the unitary steps
        # before it: the propagator chain itself when decay is off
        if not hermitian:
            products = _running_products(qcore.eigen_exponential(*eig, durations[:, None]))
        totals = _integrate_dwell(*eig, durations, layout.weights, products)
        picked = totals.ravel()[layout.slot[comp]]
        dwell = {lab: float(t) for lab, t in zip(labels, picked)}
    elif opts.compute_dwell:
        dwell = {lab: 0.0 for lab in labels}

    return SimulationResult(
        full_propagator=propagator,
        computational_block=propagator[np.ix_(comp, comp)],
        leakage_per_input=leakage,
        dwell_per_input=dwell,
        norm_loss_per_input=norm_loss,
        phase_correction=phase_correction,
        phase_mismatch=phase_mismatch,
    )
