"""Reference implementations the tests compare the package against.

The 2^N product-space oracle builds every operator, state and propagator of
N spin-1/2 particles from Pauli matrices and Kronecker products, and shares
no code with the Dicke-basis path: the raw pairwise Hamiltonian, the
collective spins S_a = (1/2) sum_j sigma_a^j, the product coherent state,
free evolution under a quadratic form of those spins, a pulse as the tensor
power of one 2x2 rotation, and the projection onto the symmetric sector.
Beside it: the lab-frame collective form of a pairwise coupling, built from
dense operator products, a schedule's one-cycle dense unitary, the
quadratic coefficients that each effective form's name spells, and the
schedule executor as it held every cycle-boundary state before it yielded
them in blocks.
"""

import math
from collections.abc import Sequence

import numpy as np

from lmgsqueeze.algebra import build_space, collective_operator
from lmgsqueeze.canonical import CouplingMatrix, model_eigenbasis
from lmgsqueeze.errors import TooLarge
from lmgsqueeze.propagate import (
    PARITY_ROWS,
    _apply_cycle,
    _half_unitaries,
    _keeps_parity,
    half_unitary_crossover,
    realized_cycle,
    run_cycles,
)
from lmgsqueeze.states import BlochAngles, SpinState

FULL_SPACE_MAX_SPINS = 12

# Quadratic coefficients (on Sx^2, Sy^2, Sz^2) of each effective form.
FORM_COEFFICIENTS = {
    "Sx2+2Sy2": (1.0, 2.0, 0.0),  # == Sy^2 - Sz^2 + S^2
    "2Sx2+Sy2": (2.0, 1.0, 0.0),  # == Sx^2 - Sz^2 + S^2
    "Sx2-Sy2": (1.0, -1.0, 0.0),  # two-axis twisting about z
}

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def _pair_term(n_spins: int, site_a: int, op_a: np.ndarray, site_b: int, op_b: np.ndarray):
    """Dense sigma_a^(site_a) sigma_b^(site_b) on the 2^N product space;
    ``site_b`` = None gives the one-site sigma_a^(site_a)."""
    mat = np.array([[1.0 + 0.0j]])
    for site in range(n_spins):
        if site == site_a:
            mat = np.kron(mat, op_a)
        elif site == site_b:
            mat = np.kron(mat, op_b)
        else:
            mat = np.kron(mat, np.eye(2, dtype=complex))
    return mat


def _require_size(n_spins: int) -> None:
    if n_spins > FULL_SPACE_MAX_SPINS:
        raise TooLarge(f"full product space capped at N={FULL_SPACE_MAX_SPINS}, got {n_spins}")


def full_pairwise_hamiltonian(n_spins: int, coupling: CouplingMatrix) -> np.ndarray:
    """H = sum_{j<k} chi_ab sigma_a^j sigma_b^k, built term by term."""
    _require_size(n_spins)
    dim = 2**n_spins
    ham = np.zeros((dim, dim), dtype=complex)
    axes = ("x", "y", "z")
    for j in range(n_spins):
        for k in range(j + 1, n_spins):
            for a, alpha in enumerate(axes):
                for b, beta in enumerate(axes):
                    strength = coupling.chi[a, b]
                    if strength != 0.0:
                        ham += strength * _pair_term(n_spins, j, _PAULI[alpha], k, _PAULI[beta])
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
    i down spins, so it belongs to the Dicke state of index i.  A (2^N, R)
    block projects column by column.
    """
    dim = 2**n_spins
    down_counts = np.array([bin(b).count("1") for b in range(dim)])
    weights = np.zeros((n_spins + 1,) + psi_full.shape[1:], dtype=complex)
    np.add.at(weights.real, down_counts, psi_full.real)
    np.add.at(weights.imag, down_counts, psi_full.imag)
    norms = np.sqrt(np.array([math.comb(n_spins, i) for i in range(n_spins + 1)]))
    return weights / norms.reshape((-1,) + (1,) * (psi_full.ndim - 1))


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
    return SpinState(amplitudes=project_symmetric(n_spins, psi_t), space=build_space(n_spins))


class ProductSpace:
    """The collective spins of N spin-1/2 particles on the 2^N product
    space, and the pulse engine's segments built from them alone."""

    def __init__(self, n_spins: int):
        _require_size(n_spins)
        self.n_spins = n_spins
        self.spins = {
            axis: 0.5 * sum(_pair_term(n_spins, site, op, None, None) for site in range(n_spins))
            for axis, op in _PAULI.items()
        }

    def free(self, coefficients: tuple, duration) -> np.ndarray:
        """exp(-i t H), H = a Sx^2 + b Sy^2 + c Sz^2; an (R,) array of
        durations gives one propagator per column, stacked first."""
        ham = sum(
            coeff * (self.spins[axis] @ self.spins[axis])
            for coeff, axis in zip(coefficients, "xyz")
        )
        w, v = np.linalg.eigh(ham)
        if np.ndim(duration) == 0:
            return (v * np.exp(-1j * w * duration)) @ v.conj().T
        return np.stack([(v * np.exp(-1j * w * t)) @ v.conj().T for t in duration])

    def pulse(self, axis: str, angle) -> np.ndarray:
        """exp(-i angle S_axis) as the N-fold tensor power of
        exp(-i angle sigma_axis / 2); an (R,) array of angles gives one per
        column, stacked first."""
        if np.ndim(angle):
            return np.stack([self.pulse(axis, value) for value in angle])
        one = math.cos(angle / 2.0) * np.eye(2) - 1j * math.sin(angle / 2.0) * _PAULI[axis]
        mat = np.array([[1.0 + 0.0j]])
        for _ in range(self.n_spins):
            mat = np.kron(mat, one)
        return mat

    def coherent_block(self, angles: BlochAngles, columns: int) -> np.ndarray:
        """The product coherent state at ``angles`` in each of ``columns``."""
        return np.repeat(_product_coherent_state(self.n_spins, angles)[:, None], columns, axis=1)

    def moments(self, states: np.ndarray) -> tuple:
        """First moments (3, K) and symmetrized second moments (3, 3, K) of
        the columns of a (2^N, K) block of states."""
        ops = [self.spins[axis] for axis in "xyz"]
        applied = [op @ states for op in ops]
        mean = np.array([np.einsum("ik,ik->k", states.conj(), s).real for s in applied])
        second = np.array(
            [[np.einsum("ik,ik->k", sa.conj(), sb).real for sb in applied] for sa in applied]
        )
        return mean, 0.5 * (second + second.transpose(1, 0, 2))


def apply_step(step: np.ndarray, states: np.ndarray) -> np.ndarray:
    """One segment's propagator, shared (2D) or one per column (3D), applied
    to the columns of a (2^N, R) block."""
    if step.ndim == 2:
        return step @ states
    return np.einsum("rij,jr->ir", step, states)


def pairwise_collective_hamiltonian(coupling: CouplingMatrix, space) -> np.ndarray:
    """Lab-frame collective form 2 sum_ab chi_ab S_a S_b (constant excluded)."""
    ops = [collective_operator(space, lbl) for lbl in ("Sx", "Sy", "Sz")]
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    sym = 0.5 * (coupling.chi + coupling.chi.T)
    for a in range(3):
        for b in range(3):
            mat += 2.0 * sym[a, b] * (ops[a] @ ops[b])
    return mat


def schedule_unitary(schedule, model, space) -> np.ndarray:
    """Dense unitary for a single cycle of the schedule: the cycle as the
    executor runs it, applied to the identity."""
    basis = model_eigenbasis(model, space)
    cycle = realized_cycle(space, schedule.segments, model.coefficients, basis)
    return _apply_cycle(space, cycle, np.eye(space.dim, dtype=complex))


def boundary_states(state: SpinState, cycles) -> np.ndarray:
    """Every block that ``run_cycles`` yields, joined along the boundary axis."""
    return np.concatenate(list(run_cycles(state, cycles)), axis=-1)


def stacked_cycles(state: SpinState, cycles) -> np.ndarray:
    """The amplitudes at every cycle boundary, the initial state first, held
    together and stacked along a last axis: the reference for the blocks of
    ``run_cycles``.  A sequence repeating one parity-keeping cycle from the
    crossover on runs as its two half unitaries, each half through every
    cycle before the other; every other sequence is stepped segment by
    segment into a list of snapshots."""
    space, amps = state.space, state.amplitudes
    if (
        isinstance(cycles, Sequence)
        and len(cycles) >= half_unitary_crossover(space.dim // 2)
        and all(cycle is cycles[0] for cycle in cycles)
        and _keeps_parity(cycles[0])
    ):
        out = np.empty(amps.shape + (len(cycles) + 1,), dtype=complex)
        for rows, unitary in zip(PARITY_ROWS, _half_unitaries(space, cycles[0])):
            part = amps[rows]
            parts = [part]
            for _ in cycles:
                part = unitary @ part
                parts.append(part)
            out[rows] = np.stack(parts, axis=-1)
        return out
    snapshots = [amps]
    for segments in cycles:
        amps = _apply_cycle(space, segments, amps)
        snapshots.append(amps)
    return np.stack(snapshots, axis=-1)
