"""Exact time evolution under piecewise-constant Hamiltonians.

Evolution uses the Hermitian eigendecomposition of each Hamiltonian, held
in an Eigenbasis that the caller builds once and passes in, so schedules
that reuse the same two Hamiltonians thousands of times pay for two
factorizations; a real quadratic form, which conserves Sz-parity, can be
factored as two real blocks of half the size.  Pulses are instantaneous
unitaries (Rabi limit).
``run_cycles`` is the one executor that applies segments to a state: pulse
schedules and every noisy trajectory (a perturbed copy of a schedule's
segments) run through it.  A small-N full product-space evolver is provided
as an independent oracle for the symmetric-sector reduction.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import DickeSpace, SpinOperator, build_space
from .canonical import CouplingMatrix, LMGModel, realize_hamiltonian
from .errors import DimensionMismatch, NotHermitian, TooLarge
from .states import BlochAngles, SpinState, rotate_state, rotation

HERMITICITY_TOL = 1e-10
FULL_SPACE_MAX_SPINS = 12


def hamiltonian_eig(hamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a Hermitian matrix (else NotHermitian)."""
    mat = hamiltonian.matrix if isinstance(hamiltonian, SpinOperator) else np.asarray(hamiltonian)
    scale = max(1.0, float(np.max(np.abs(mat))) if mat.size else 1.0)
    if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOL * scale:
        raise NotHermitian("hamiltonian is not Hermitian")
    return np.linalg.eigh(mat)


@dataclass(frozen=True)
class Eigenbasis:
    """Eigenvalues ``w``, eigenvector columns ``v`` and ``vh = v.conj().T``
    of one Hermitian Hamiltonian, factored once and reused for every time."""

    w: np.ndarray
    v: np.ndarray
    vh: np.ndarray

    @classmethod
    def of(cls, hamiltonian) -> "Eigenbasis":
        """Factor ``hamiltonian`` (an Eigenbasis is returned as it is)."""
        if isinstance(hamiltonian, Eigenbasis):
            return hamiltonian
        w, v = hamiltonian_eig(hamiltonian)
        return cls(w=w, v=v, vh=v.conj().T)

    @classmethod
    def of_quadratic_form(cls, matrix) -> "Eigenbasis":
        """Factor a real symmetric a Sx^2 + b Sy^2 + c Sz^2 by Sz-parity.

        Such a matrix couples m only to m +- 2, so its even- and odd-index
        blocks are independent real problems of about half the size.  Any
        matrix with an imaginary part, an asymmetry or a nonzero off the
        diagonals 0 and +-2 raises ValueError.
        """
        mat = np.asarray(matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        bands = [np.diagonal(mat, k) for k in (0, 2, -2)]
        if np.count_nonzero(mat) != sum(np.count_nonzero(band) for band in bands):
            raise ValueError("quadratic form has entries off the diagonals 0 and +-2")
        if any(np.any(np.imag(band)) for band in bands):
            raise ValueError("quadratic form is not real")
        if np.any(bands[1] != bands[2]):
            raise ValueError("quadratic form is not symmetric")
        real = mat.real
        w_even, v_even = np.linalg.eigh(real[0::2, 0::2])
        w_odd, v_odd = np.linalg.eigh(real[1::2, 1::2])
        w = np.concatenate([w_even, w_odd])
        v = np.zeros(mat.shape, dtype=complex)
        v[0::2, : w_even.size] = v_even
        v[1::2, w_even.size :] = v_odd
        order = np.argsort(w, kind="stable")
        v = v[:, order]
        return cls(w=w[order], v=v, vh=v.conj().T)

    def propagate(self, amplitudes: np.ndarray, t: float) -> np.ndarray:
        """exp(-i H t) applied to an amplitude vector."""
        return self.v @ (np.exp(-1j * self.w * t) * (self.vh @ amplitudes))


def evolve(state: SpinState, hamiltonian, t: float) -> SpinState:
    """Propagate |psi> to exp(-i H t) |psi>, H an Eigenbasis or a Hermitian matrix.

    Negative times are permitted (time reversal); the norm is preserved to
    machine precision.
    """
    amps = Eigenbasis.of(hamiltonian).propagate(state.amplitudes, t)
    return SpinState(amplitudes=amps, space=state.space)


def evolve_batch(state: SpinState, hamiltonian, times: np.ndarray) -> np.ndarray:
    """States at many times as columns of a (dim, len(times)) array."""
    basis = Eigenbasis.of(hamiltonian)
    coeffs = basis.vh @ state.amplitudes
    phases = np.exp(-1j * np.outer(basis.w, np.asarray(times, dtype=float)))
    return basis.v @ (phases * coeffs[:, None])


@dataclass(frozen=True)
class FreeSegment:
    """Free evolution for ``duration``; ``hamiltonian`` None means the model's."""

    duration: float
    hamiltonian: object = None

    def __post_init__(self):
        if self.duration < 0.0:
            raise ValueError(f"segment duration must be >= 0, got {self.duration}")


@dataclass(frozen=True)
class PulseSegment:
    """Instantaneous rotation exp(-i angle S_axis)."""

    axis: str
    angle: float


@dataclass(frozen=True)
class PulseSchedule:
    """One cycle of segments, applied ``cycle_count`` times.

    Segments are listed in application order.  The total duration is
    cycle_count * (t1 + t2).
    """

    segments: tuple
    cycle_count: int
    t1: float
    t2: float

    @property
    def cycle_time(self) -> float:
        return self.t1 + self.t2


def _resolved_cycle(
    schedule: PulseSchedule, model: LMGModel, space: DickeSpace, model_basis=None
) -> tuple:
    """The schedule's cycle with each distinct free-segment Hamiltonian
    factored once (None: the model's) and put in place as an Eigenbasis."""
    bases = {}

    def basis(hamiltonian):
        if id(hamiltonian) not in bases:
            if hamiltonian is None:
                bases[id(None)] = model_basis or Eigenbasis.of(realize_hamiltonian(model, space))
            else:
                bases[id(hamiltonian)] = Eigenbasis.of(hamiltonian)
        return bases[id(hamiltonian)]

    return tuple(
        FreeSegment(seg.duration, basis(seg.hamiltonian)) if isinstance(seg, FreeSegment) else seg
        for seg in schedule.segments
    )


def run_cycles(state: SpinState, cycles) -> tuple[np.ndarray, np.ndarray]:
    """Apply each cycle (a tuple of segments whose free Hamiltonians are
    Eigenbases) to ``state`` in turn.

    Returns the elapsed time and the amplitudes, as columns, at every cycle
    boundary, starting with the initial state.
    """
    current = state
    elapsed = 0.0
    times = [elapsed]
    snapshots = [state.amplitudes]
    for segments in cycles:
        for seg in segments:
            if isinstance(seg, FreeSegment):
                amps = seg.hamiltonian.propagate(current.amplitudes, seg.duration)
                current = SpinState(amps, state.space)
                elapsed += seg.duration
            else:
                current = rotate_state(current, seg.axis, seg.angle)
        times.append(elapsed)
        snapshots.append(current.amplitudes)
    return np.array(times), np.column_stack(snapshots)


def run_schedule(
    state: SpinState,
    schedule: PulseSchedule,
    model: LMGModel,
    model_basis: Eigenbasis | None = None,
):
    """Apply the schedule, sampling the squeezing trace at every cycle boundary.

    ``model_basis``: the Eigenbasis of the model's Hamiltonian, when the
    caller holds it.
    """
    space = state.space
    if space.n_spins != model.n_spins:
        raise DimensionMismatch(f"state has N={space.n_spins}, model has N={model.n_spins}")
    cycle = _resolved_cycle(schedule, model, space, model_basis)
    times, states = run_cycles(state, itertools.repeat(cycle, schedule.cycle_count))

    from .metrics import trace_from_states

    return trace_from_states(space, times, states)


def schedule_unitary(schedule: PulseSchedule, model: LMGModel, space: DickeSpace) -> np.ndarray:
    """Dense unitary for a single cycle of the schedule."""
    un = np.eye(space.dim, dtype=complex)
    for seg in _resolved_cycle(schedule, model, space):
        if isinstance(seg, FreeSegment):
            basis = seg.hamiltonian
            step = (basis.v * np.exp(-1j * basis.w * seg.duration)) @ basis.vh
        else:
            step = rotation(space, seg.axis, seg.angle).matrix
        un = step @ un
    return un


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
