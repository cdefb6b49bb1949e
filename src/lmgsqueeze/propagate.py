"""Exact time evolution under piecewise-constant Hamiltonians.

Evolution uses the Hermitian eigendecomposition of each Hamiltonian, held
in an ``algebra.Eigenbasis`` that the caller builds once and passes in, so
schedules that reuse the same two Hamiltonians thousands of times pay for
two factorizations.  A free segment whose Hamiltonian is applied only once
(a noisy run's per-segment form) carries an ``algebra.BandedForm``
instead, stepped through its bands with no factorization.  The model
Hamiltonian, a real quadratic form that conserves Sz-parity, is factored
as two real blocks of half the size
(``canonical.model_eigenbasis``) and applied as real products; any other
Hamiltonian is factored densely (``Eigenbasis.of``).  Pulses are
instantaneous unitaries (Rabi limit).  A nominal pulse pair about x or y
around free evolution under the model is run in the toggling frame
(``toggled_cycle``): it is free evolution under the conjugated quadratic
form, factored by parity once per realized cycle.  ``realized_cycle`` alone
makes a cycle as it is run, pairs toggled and free Hamiltonians filled in
with a basis: ``run_schedule``, ``schedule_unitary`` and the noise Monte
Carlo step it; z pulses and drawn pulse errors are applied as rotations.
``run_cycles`` is the one executor: segments in, states out.  Pulse
schedules (one trajectory) and blocks of noisy trajectories (perturbed
copies of a schedule's segments, held as the columns of one array) run
through it, one product per segment for the whole block; the schedule owns
the cycle-boundary times (``PulseSchedule.times``).  A cycle's dense
unitary is ``_apply_cycle`` on the identity; a cycle repeated at least dim
times is applied as it.  A small-N full product-space evolver is provided
as an independent oracle for the symmetric-sector reduction.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .algebra import (
    BandedForm,
    DickeSpace,
    Eigenbasis,
    build_space,
    conjugated_coefficients,
    quadratic_form,
)
from .algebra import hamiltonian_eig  # noqa: F401  (re-exported: part of this module's API)
from .canonical import CouplingMatrix, LMGModel, model_eigenbasis
from .errors import DimensionMismatch, TooLarge
from .states import BlochAngles, SpinState, rotate_state

FULL_SPACE_MAX_SPINS = 12


def evolve(state: SpinState, basis: Eigenbasis, t: float) -> SpinState:
    """Propagate |psi> to exp(-i H t) |psi>, H given by its Eigenbasis.

    Negative times are permitted (time reversal); the norm is preserved to
    machine precision.
    """
    return SpinState(amplitudes=basis.propagate(state.amplitudes, t), space=state.space)


def evolve_batch(
    state: SpinState, basis: Eigenbasis, times: np.ndarray, phases: np.ndarray | None = None
) -> np.ndarray:
    """States at many times as columns of a (dim, len(times)) array.

    ``phases`` is the basis's ``Eigenbasis.phases(times)`` when the caller
    holds it (one table serves every state sampled on one time grid).
    """
    if phases is None:
        phases = basis.phases(times)
    elif phases.shape != (basis.w.size, np.size(times)):
        raise ValueError(f"phase table of shape {phases.shape} does not match the basis and times")
    return basis.sample(state.amplitudes, phases)


@dataclass(frozen=True)
class FreeSegment:
    """Free evolution for ``duration`` under an Eigenbasis, or under a
    BandedForm applied once; None means the model's Eigenbasis.

    Applied to a block of states (``run_cycles``), ``duration`` may be an
    (R,) array of one duration per column, and a BandedForm's coefficients
    one per column too.
    """

    duration: float | np.ndarray
    hamiltonian: Eigenbasis | BandedForm | None = None

    def __post_init__(self):
        if not np.all((np.asarray(self.duration) >= 0.0) & np.isfinite(self.duration)):
            raise ValueError(f"segment duration must be finite and >= 0, got {self.duration}")
        kinds = (Eigenbasis, BandedForm, type(None))
        if not isinstance(self.hamiltonian, kinds):
            kind = type(self.hamiltonian).__name__
            raise TypeError(
                f"segment Hamiltonian must be an Eigenbasis, a BandedForm or None, got {kind}"
            )


@dataclass(frozen=True)
class PulseSegment:
    """Instantaneous rotation exp(-i angle S_axis); on a block of states,
    ``angle`` may be an (R,) array of one angle per column."""

    axis: str
    angle: float | np.ndarray


@dataclass(frozen=True)
class PulseSchedule:
    """One cycle of segments, applied ``cycle_count`` times.

    Segments are listed in application order.  The total duration is
    cycle_count * (t1 + t2); ``times`` is every run's one time axis.
    """

    segments: tuple
    cycle_count: int
    t1: float
    t2: float

    @property
    def cycle_time(self) -> float:
        return self.t1 + self.t2

    @property
    def times(self) -> np.ndarray:
        """Elapsed time at each of the cycle_count + 1 cycle boundaries: the
        free durations added one by one in run order, not k * cycle_time."""
        durations = [seg.duration for seg in self.segments if isinstance(seg, FreeSegment)]
        sums = np.add.accumulate([0.0] + durations * self.cycle_count)
        return sums[:: len(durations)] if durations else np.zeros(self.cycle_count + 1)


def _is_nominal_pair(segments) -> bool:
    """Whether ``segments`` is pulse(a, theta), free evolution under the
    model, pulse(a, -theta), with a = x or y and theta = +-pi/2."""
    if len(segments) != 3:
        return False
    first, free, last = segments
    return (
        isinstance(first, PulseSegment)
        and isinstance(free, FreeSegment)
        and isinstance(last, PulseSegment)
        and first.axis in ("x", "y")
        and last.axis == first.axis
        and free.hamiltonian is None
        and abs(first.angle) == math.pi / 2.0
        and last.angle == -first.angle
    )


def toggled_cycle(space: DickeSpace, segments, coefficients: tuple) -> tuple:
    """``segments`` with each nominal x or y pulse pair run in the toggling frame.

    A pair pulse(a, theta), free(t) under the model, pulse(a, -theta) with
    theta = +-pi/2 applies exp(-i t R^H H R), R = exp(-i theta S_a).  For the
    model's form H with ``coefficients``, R^H H R is the same form with the two
    coefficients other than a's swapped (``conjugated_coefficients``), so the
    pair becomes one free segment under it, factored by parity once per axis.
    Pairs about z stay pulses (a z pulse is a diagonal phase, cheaper than a
    factorization), and so does every other segment.
    """
    out, bases, i = [], {}, 0
    while i < len(segments):
        if _is_nominal_pair(segments[i : i + 3]):
            axis = segments[i].axis
            if axis not in bases:
                form = quadratic_form(space, *conjugated_coefficients(axis, coefficients))
                bases[axis] = Eigenbasis.of_quadratic_form(form)
            out.append(FreeSegment(segments[i + 1].duration, bases[axis]))
            i += 3
        else:
            out.append(segments[i])
            i += 1
    return tuple(out)


def realized_cycle(space: DickeSpace, segments, coefficients: tuple | None, basis) -> tuple:
    """``segments`` as they are run: each nominal x or y pulse pair in the
    toggling frame of the form with ``coefficients`` (``toggled_cycle``;
    None keeps every pulse a rotation), and ``basis`` in place of each free
    segment's Hamiltonian left as None."""
    if coefficients is not None:
        segments = toggled_cycle(space, segments, coefficients)
    return tuple(
        FreeSegment(seg.duration, seg.hamiltonian or basis) if isinstance(seg, FreeSegment) else seg
        for seg in segments
    )


def _apply_cycle(space: DickeSpace, cycle, amps: np.ndarray) -> np.ndarray:
    """One cycle of segments applied to an amplitude vector or a (dim, R)
    block; on ``np.eye(dim)`` it gives the cycle's dense unitary."""
    for seg in cycle:
        if isinstance(seg, FreeSegment):
            amps = seg.hamiltonian.propagate(amps, seg.duration)
        else:
            amps = rotate_state(SpinState(amps, space), seg.axis, seg.angle).amplitudes
    return amps


def run_cycles(state: SpinState, cycles) -> np.ndarray:
    """Apply each cycle (a tuple of segments whose free Hamiltonians are
    Eigenbases) to ``state`` in turn.

    ``state`` holds one amplitude vector or a block of R trajectories as the
    columns of a (dim, R) array, and each segment applies to the whole block
    as one product; its duration or angle may be an (R,) array of one value
    per column.  When ``cycles`` is a sequence holding one cycle object at
    least dim times, and that cycle takes one value for every column, its
    unitary is built once and applied as one product per cycle.

    Returns the amplitudes at every cycle boundary, starting with the
    initial state, stacked along a last axis; their times are the
    schedule's (``PulseSchedule.times``).
    """
    space = state.space
    amps = state.amplitudes
    snapshots = [amps]
    unitary = None
    if isinstance(cycles, Sequence) and len(cycles) >= space.dim:
        first = cycles[0]
        values = [seg.duration if isinstance(seg, FreeSegment) else seg.angle for seg in first]
        if all(cycle is first for cycle in cycles) and not any(map(np.ndim, values)):
            unitary = _apply_cycle(space, first, np.eye(space.dim, dtype=complex))
    for segments in cycles:
        amps = _apply_cycle(space, segments, amps) if unitary is None else unitary @ amps
        snapshots.append(amps)
    return np.stack(snapshots, axis=-1)


def run_schedule(
    state: SpinState,
    schedule: PulseSchedule,
    model: LMGModel,
    model_basis: Eigenbasis | None = None,
):
    """Apply the schedule, sampling the squeezing trace at its cycle boundaries (``times``).

    ``model_basis``: the Eigenbasis of the model's Hamiltonian, when the
    caller holds it; else ``model_eigenbasis`` factors it.
    """
    space = state.space
    if space.n_spins != model.n_spins:
        raise DimensionMismatch(f"state has N={space.n_spins}, model has N={model.n_spins}")
    basis = model_basis or model_eigenbasis(model, space)
    cycle = realized_cycle(space, schedule.segments, model.coefficients, basis)
    states = run_cycles(state, (cycle,) * schedule.cycle_count)

    from .metrics import trace_from_states

    return trace_from_states(space, schedule.times, states)


def schedule_unitary(schedule: PulseSchedule, model: LMGModel, space: DickeSpace) -> np.ndarray:
    """Dense unitary for a single cycle of the schedule."""
    basis = model_eigenbasis(model, space)
    cycle = realized_cycle(space, schedule.segments, model.coefficients, basis)
    return _apply_cycle(space, cycle, np.eye(space.dim, dtype=complex))


# ---------------------------------------------------------------------------
# full product-space oracle
# ---------------------------------------------------------------------------

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def _pair_term(n_spins: int, site_a: int, op_a: np.ndarray, site_b: int, op_b: np.ndarray):
    """Dense sigma_a^(site_a) sigma_b^(site_b) on the 2^N product space."""
    mat = np.array([[1.0 + 0.0j]])
    for site in range(n_spins):
        if site == site_a:
            mat = np.kron(mat, op_a)
        elif site == site_b:
            mat = np.kron(mat, op_b)
        else:
            mat = np.kron(mat, np.eye(2, dtype=complex))
    return mat


def full_pairwise_hamiltonian(n_spins: int, coupling: CouplingMatrix) -> np.ndarray:
    """H = sum_{j<k} chi_ab sigma_a^j sigma_b^k, built term by term."""
    if n_spins > FULL_SPACE_MAX_SPINS:
        raise TooLarge(
            f"full product space capped at N={FULL_SPACE_MAX_SPINS}, got {n_spins}"
        )
    dim = 2**n_spins
    ham = np.zeros((dim, dim), dtype=complex)
    axes = ("x", "y", "z")
    for j in range(n_spins):
        for k in range(j + 1, n_spins):
            for a, alpha in enumerate(axes):
                for b, beta in enumerate(axes):
                    strength = coupling.chi[a, b]
                    if strength != 0.0:
                        ham += strength * _pair_term(
                            n_spins, j, _PAULI[alpha], k, _PAULI[beta]
                        )
    return ham


def _product_coherent_state(n_spins: int, angles: BlochAngles) -> np.ndarray:
    """Product state with every spin pointing along the Bloch direction."""
    spinor = np.array(
        [
            math.cos(angles.theta / 2.0),
            np.exp(1j * angles.phi) * math.sin(angles.theta / 2.0),
        ],
        dtype=complex,
    )
    psi = np.array([1.0 + 0.0j])
    for _ in range(n_spins):
        psi = np.kron(psi, spinor)
    return psi


def project_symmetric(n_spins: int, psi_full: np.ndarray) -> np.ndarray:
    """Amplitudes of the Dicke components <j, m | psi>, index i = j - m.

    With single-spin basis (up, down), a product index with i bits set holds
    i down spins, so it belongs to the Dicke state of index i.
    """
    dim = 2**n_spins
    down_counts = np.array([bin(b).count("1") for b in range(dim)])
    weights = np.zeros(n_spins + 1, dtype=complex)
    np.add.at(weights.real, down_counts, psi_full.real)
    np.add.at(weights.imag, down_counts, psi_full.imag)
    norms = np.sqrt(np.array([math.comb(n_spins, i) for i in range(n_spins + 1)]))
    return weights / norms


def evolve_full_product_space(
    n_spins: int, coupling: CouplingMatrix, initial: BlochAngles, t: float
) -> SpinState:
    """Evolve the product coherent state under the raw pairwise Hamiltonian
    and project onto the symmetric sector.

    The symmetric sector is invariant, so the projection loses no norm; the
    result is returned as Dicke-basis amplitudes (unnormalized projection,
    which tests can check has unit norm).
    """
    ham = full_pairwise_hamiltonian(n_spins, coupling)
    psi = _product_coherent_state(n_spins, initial)
    w, v = np.linalg.eigh(ham)
    psi_t = v @ (np.exp(-1j * w * t) * (v.conj().T @ psi))
    return SpinState(
        amplitudes=project_symmetric(n_spins, psi_t), space=build_space(n_spins)
    )
