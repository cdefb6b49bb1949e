"""Coherent spin states and exact rotations.

Rotations are realized through the eigendecomposition of their Hermitian
generator, never by series truncation, so unitarity holds to machine
precision.  Global phases are unconstrained throughout.
"""

import math
from dataclasses import dataclass

import numpy as np

from .algebra import DickeSpace, SpinOperator, _frozen, collective_operator

_AXES = ("x", "y", "z")


@dataclass(frozen=True)
class BlochAngles:
    """Polar angle from +z and azimuth from +x, in radians."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi}")

    def direction(self) -> np.ndarray:
        """Cartesian unit vector (sin t cos p, sin t sin p, cos t)."""
        return np.array(
            [
                math.sin(self.theta) * math.cos(self.phi),
                math.sin(self.theta) * math.sin(self.phi),
                math.cos(self.theta),
            ]
        )


@dataclass(frozen=True)
class SpinState:
    """Pure state on a Dicke space, stored as complex amplitudes."""

    amplitudes: np.ndarray
    space: DickeSpace

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def expectation(self, operator) -> complex:
        mat = operator.matrix if isinstance(operator, SpinOperator) else operator
        return complex(np.vdot(self.amplitudes, mat @ self.amplitudes))


def coherent_generator_eig(space: DickeSpace, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the coherent-state generator sin(phi) Sx - cos(phi) Sy."""
    sx = collective_operator(space, "Sx").matrix
    sy = collective_operator(space, "Sy").matrix
    return np.linalg.eigh(math.sin(phi) * sx - math.cos(phi) * sy)


def coherent_state(space: DickeSpace, angles: BlochAngles, generator_eig=None) -> SpinState:
    """Coherent spin state exp(i theta (Sx sin phi - Sy cos phi)) |j, j>.

    The mean spin points along ``angles.direction()`` with length N/2.
    ``generator_eig`` is ``coherent_generator_eig(space, angles.phi)`` when
    the caller already holds it (states sharing one azimuth share it).
    """
    if generator_eig is None:
        generator_eig = coherent_generator_eig(space, angles.phi)
    w, v = generator_eig
    # exp(i theta G) applied to |j, j> (basis index 0)
    amps = v @ (np.exp(1j * angles.theta * w) * np.conj(v[0, :]))
    amps = amps / np.linalg.norm(amps)
    return SpinState(amplitudes=amps, space=space)


def _axis_eig(space: DickeSpace, axis: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors, v.conj().T) of S_axis, held by the space."""

    def build():
        w, v = np.linalg.eigh(collective_operator(space, "S" + axis).matrix)
        return _frozen(w), _frozen(v), _frozen(v.conj().T)

    return space.built("eig" + axis, build)


def rotation(space: DickeSpace, axis: str, angle: float) -> SpinOperator:
    """Unitary rotation exp(-i angle S_axis) as a dense matrix."""
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {_AXES}, got {axis!r}")
    if not np.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle!r}")
    if axis == "z":
        mat = np.diag(np.exp(-1j * angle * space.m_values()))
    else:
        w, v, vh = _axis_eig(space, axis)
        mat = (v * np.exp(-1j * angle * w)) @ vh
    return SpinOperator(matrix=mat, label=f"R{axis}")


def rotate_state(state: SpinState, axis: str, angle: float) -> SpinState:
    """Apply exp(-i angle S_axis) without materializing the full matrix."""
    if axis == "z":
        amps = np.exp(-1j * angle * state.space.m_values()) * state.amplitudes
    else:
        w, v, vh = _axis_eig(state.space, axis)
        amps = v @ (np.exp(-1j * angle * w) * (vh @ state.amplitudes))
    return SpinState(amplitudes=amps, space=state.space)


def rotation_about(space: DickeSpace, axis_vector: np.ndarray, angle: float) -> np.ndarray:
    """Unitary exp(-i angle n.S) for an arbitrary (not necessarily unit) axis."""
    n = np.asarray(axis_vector, dtype=float)
    norm = np.linalg.norm(n)
    if norm == 0.0:
        return np.eye(space.dim, dtype=complex)
    n = n / norm
    gen = (
        n[0] * collective_operator(space, "Sx").matrix
        + n[1] * collective_operator(space, "Sy").matrix
        + n[2] * collective_operator(space, "Sz").matrix
    )
    w, v = np.linalg.eigh(gen)
    return (v * np.exp(-1j * angle * w)) @ v.conj().T

