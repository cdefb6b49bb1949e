"""Coherent spin states and exact rotations.

Every rotation goes through one kernel, ``rotate_state``: a rotation about
z is a diagonal phase, one about x goes through the one real Eigenbasis of
Sx the space holds, and one about y is that x rotation between two quarter
turns about z.  A coherent state turns |j, j> through the Eigenbasis of
the azimuth-0 generator -Sy, then about z.  Nothing is a truncated series,
so unitarity holds to machine precision; a dense rotation matrix is
``rotate_state`` on the identity.  Global phases are unconstrained throughout.
"""

import math
from dataclasses import dataclass

import numpy as np

from .algebra import DickeSpace, Eigenbasis, collective_operator
from .errors import ConfigError

_AXES = ("x", "y", "z")


@dataclass(frozen=True)
class BlochAngles:
    """Polar angle from +z and azimuth from +x, in radians."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ConfigError(f"theta: must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ConfigError(f"phi: must lie in [0, 2*pi), got {self.phi}")


@dataclass(frozen=True)
class SpinState:
    """Pure state on a Dicke space, stored as complex amplitudes; the
    schedule executor and ``rotate_state`` also carry a block of states as
    the columns of a (dim, R) array."""

    amplitudes: np.ndarray
    space: DickeSpace


def coherent_generator_eig(space: DickeSpace) -> Eigenbasis:
    """Eigenbasis of the azimuth-0 coherent-state generator -Sy; not kept by
    the space, so callers that prepare many states hold it and drop it."""
    # sin(0) Sx - cos(0) Sy, not -Sy: the signs of its zeros reach eigh;
    # Sx and Sy are dropped as soon as they are used, before eigh runs
    generator = math.sin(0.0) * collective_operator(space, "Sx")
    generator -= math.cos(0.0) * collective_operator(space, "Sy")
    return Eigenbasis.of(generator)


def coherent_state(space: DickeSpace, angles: BlochAngles, generator_eig=None) -> SpinState:
    """Coherent spin state Rz(phi) exp(-i theta Sy) |j, j>.

    The mean spin points along (sin theta cos phi, sin theta sin phi,
    cos theta) with length N/2.
    Since sin phi Sx - cos phi Sy = Rz(phi) (-Sy) Rz(phi)^H, this is
    exp(i theta (Sx sin phi - Sy cos phi)) |j, j> up to the global phase
    e^{i phi j}, of which xi^2 and every output column are free.
    ``generator_eig`` is ``coherent_generator_eig(space)`` when the caller
    already holds it.
    """
    if generator_eig is None:
        generator_eig = coherent_generator_eig(space)
    top = np.zeros(space.dim, dtype=complex)
    top[0] = 1.0  # |j, j>
    amps = generator_eig.propagate(top, -angles.theta)
    amps = rotation(space, "z", angles.phi, of=amps / np.linalg.norm(amps))
    return SpinState(amplitudes=amps, space=space)


def _x_eig(space: DickeSpace) -> Eigenbasis:
    """Eigenbasis of Sx, held by the space: Sx is real symmetric, so the
    basis is one real block, applied as real products."""
    # a copy of the real part, so the complex Sx is freed before eigh runs
    return space.built("eigx", lambda: Eigenbasis.of(collective_operator(space, "Sx").real.copy()))


def rotation(space: DickeSpace, axis: str, angle: float, of=None) -> np.ndarray:
    """exp(-i angle S_axis) as a dense matrix, ``rotate_state`` on the
    identity; given ``of``, those amplitudes rotated instead (of ones, a z
    rotation's diagonal)."""
    if not np.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle!r}")
    of = np.eye(space.dim, dtype=complex) if of is None else of
    return rotate_state(SpinState(of, space), axis, angle).amplitudes


def rotate_state(state: SpinState, axis: str, angle) -> SpinState:
    """Apply exp(-i angle S_axis) without materializing the full matrix.

    ``state`` may hold a block of states as the columns of a (dim, R) array,
    rotated by one ``angle`` or by an (R,) array of one angle per column.
    A z rotation is a diagonal phase and an x rotation goes through the
    real eigenbasis of Sx; a y rotation is that x rotation between two
    quarter turns about z, exp(-i a Sy) = Rz(pi/2) exp(-i a Sx) Rz(-pi/2).
    """
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {_AXES}, got {axis!r}")
    amps = state.amplitudes
    m = state.space.m_values()
    m = m if np.ndim(amps) == 1 else m[:, None]
    if axis == "z":
        amps = np.exp(-1j * angle * m) * amps
    elif axis == "x":
        amps = _x_eig(state.space).propagate(amps, angle)
    else:
        quarter = np.exp(-0.5j * math.pi * m)  # Rz(pi/2)
        amps = quarter * _x_eig(state.space).propagate(np.conj(quarter) * amps, angle)
    return SpinState(amplitudes=amps, space=state.space)
