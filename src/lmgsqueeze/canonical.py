"""Reduction of generic pairwise quadratic couplings to canonical form.

A pairwise Hamiltonian sum_{j<k} chi_ab sigma_a^j sigma_b^k over identical
spin-1/2 particles is equivalent, on the symmetric sector, to

    H = chi * (Sx^2 + gamma * Sy^2) + constant

in a rotated frame, with strength chi > 0 and anisotropy 0 <= gamma <= 1/2.
Couplings whose raw anisotropy lands in (1/2, 1] are brought back into range
by exchanging the x and z principal axes, which flips the sign of the
dynamical Hamiltonian; the flip is recorded, never silently applied.
"""

from dataclasses import dataclass, field

import numpy as np

from .algebra import DickeSpace, Eigenbasis, hamiltonian_eig, quadratic_form, require_count
from .errors import AsymmetricInput, ConfigError, DimensionMismatch, InvalidSize, IsotropicCoupling
from .states import rotation

SYMMETRY_TOL = 1e-9
ISOTROPY_TOL = 1e-9

# Proper rotation exchanging the x and z axes: (x, y, z) -> (z, -y, x).
# The y sign keeps det = +1; y enters the Hamiltonian only squared.
_SWAP_XZ = np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric 3x3 pairwise coupling strengths, in rad/s (hbar = 1)."""

    chi: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.chi, dtype=float)
        if mat.shape != (3, 3):
            raise ValueError(f"coupling must be 3x3, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("coupling entries must be finite")
        object.__setattr__(self, "chi", mat)


@dataclass(frozen=True)
class LMGModel:
    """Canonical anisotropic-twisting model chi * (Sx^2 + gamma * Sy^2).

    ``frame`` is the orthogonal matrix mapping lab axes to canonical axes
    (rows are the principal axes).  When ``sign_flipped`` is true the physical
    Hamiltonian in the canonical frame is minus the realized one, up to the
    recorded constant.  ``dropped_constant`` collects the pairwise-reduction
    offset and the discarded multiples of S^2; it only contributes a global
    phase.
    """

    chi: float
    gamma: float
    frame: np.ndarray = field(repr=False)
    sign_flipped: bool
    n_spins: int
    dropped_constant: float

    def __post_init__(self):
        if self.chi <= 0.0:
            raise ValueError(f"chi must be > 0 after canonicalization, got {self.chi}")
        if not 0.0 <= self.gamma <= 0.5:
            raise ValueError(f"gamma must lie in [0, 0.5], got {self.gamma}")

    @property
    def sign(self) -> float:
        """Sign of the physical Hamiltonian relative to the realized one."""
        return -1.0 if self.sign_flipped else 1.0

    @property
    def coefficients(self) -> tuple:
        """The realized Hamiltonian's coefficients on (Sx^2, Sy^2, Sz^2)."""
        return (self.chi, self.chi * self.gamma, 0.0)


def _ordered_principal_axes(a_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues descending plus a deterministic, proper rotation frame."""
    evals, evecs = hamiltonian_eig(a_matrix)
    scale = max(np.max(np.abs(evals)), 1.0)
    cols = []
    for i in range(3):
        v = evecs[:, i].copy()
        # canonical sign: first appreciably nonzero component positive
        for comp in v:
            if abs(comp) > 1e-12:
                if comp < 0:
                    v = -v
                break
        cols.append(v)
    order = sorted(
        range(3),
        key=lambda i: (-round(evals[i] / (1e-12 * scale)), tuple(cols[i])),
    )
    evals = evals[order]
    frame = np.vstack([cols[i] for i in order])
    if np.linalg.det(frame) < 0:
        frame[1] *= -1.0  # y-axis sign is free (only squares appear)
    return evals, frame


def canonicalize(coupling: CouplingMatrix, n_spins: int) -> LMGModel:
    """Reduce a pairwise coupling to the canonical model on N spins.

    The collective form carries twice the pairwise strengths, so the
    principal values are the eigenvalues of 2*chi.  The largest axis becomes
    x and the smallest z; chi = chi_x - chi_z and
    gamma = (chi_y - chi_z) / (chi_x - chi_z).  Raw gamma > 1/2 triggers the
    x-z axis swap, mapping gamma -> 1 - gamma and flipping the sign.
    """
    n = require_count(n_spins, "n_spins", error=InvalidSize)
    mat = coupling.chi
    scale = float(np.max(np.abs(mat)))
    if np.max(np.abs(mat - mat.T)) > SYMMETRY_TOL * max(scale, 1.0):
        raise AsymmetricInput("coupling matrix is not symmetric")
    sym = 0.5 * (mat + mat.T)

    evals, frame = _ordered_principal_axes(2.0 * sym)
    chi_x, chi_y, chi_z = evals
    if chi_x - chi_z <= ISOTROPY_TOL * scale:
        raise IsotropicCoupling(
            "coupling is isotropic (H proportional to S^2); no squeezing axis"
        )

    space_j = n / 2.0
    casimir = space_j * (space_j + 1.0)
    chi = float(chi_x - chi_z)
    gamma = float(np.clip((chi_y - chi_z) / chi, 0.0, 1.0))
    # pairwise -> collective reduction constant, then the chi_z * S^2 term
    constant = -0.5 * n * float(np.trace(sym)) + chi_z * casimir

    sign_flipped = False
    if gamma > 0.5:
        gamma = 1.0 - gamma
        sign_flipped = True
        constant += chi * casimir
        frame = _SWAP_XZ @ frame

    return LMGModel(
        chi=chi,
        gamma=gamma,
        frame=frame,
        sign_flipped=sign_flipped,
        n_spins=n,
        dropped_constant=float(constant),
    )


def from_chi_gamma(chi: float, gamma: float, n_spins: int) -> LMGModel:
    """Build a model directly from (chi, gamma), remapping gamma in (1/2, 1]."""
    if not 0.0 < chi < np.inf:
        raise ConfigError(f"chi: must be a positive finite number, got {chi!r}")
    if not 0.0 <= gamma <= 1.0:
        raise ConfigError(f"gamma: must lie in [0, 1], got {gamma!r}")
    n = require_count(n_spins, "n_spins", error=InvalidSize)
    space_j = n / 2.0
    if gamma > 0.5:
        return LMGModel(
            chi=float(chi),
            gamma=float(1.0 - gamma),
            frame=_SWAP_XZ.copy(),
            sign_flipped=True,
            n_spins=n,
            dropped_constant=float(chi) * space_j * (space_j + 1.0),
        )
    return LMGModel(
        chi=float(chi),
        gamma=float(gamma),
        frame=np.eye(3),
        sign_flipped=False,
        n_spins=n,
        dropped_constant=0.0,
    )


def realize_hamiltonian(model: LMGModel, space: DickeSpace) -> np.ndarray:
    """Canonical-frame Hamiltonian chi * (Sx^2 + gamma * Sy^2)."""
    if space.n_spins != model.n_spins:
        raise DimensionMismatch(
            f"model has N={model.n_spins} but space has N={space.n_spins}"
        )
    return quadratic_form(space, *model.coefficients)


def model_eigenbasis(model: LMGModel, space: DickeSpace) -> Eigenbasis:
    """Eigenbasis of the realized Hamiltonian, factored as its two real
    Sz-parity blocks."""
    return Eigenbasis.of_quadratic_form(realize_hamiltonian(model, space))


def frame_unitary(model: LMGModel, space: DickeSpace) -> np.ndarray:
    """Unitary U with U^dag S_a U = sum_b frame[a, b] S_b.

    Transports lab-frame states into the canonical frame: if H_lab is the
    pairwise Hamiltonian on the symmetric sector, then
    H_lab = U^dag (sign * chi (Sx^2 + gamma Sy^2)) U + dropped_constant.

    With frame = Rz(alpha) Ry(beta) Rz(gamma), its z-y-z Euler angles,
    U = rotation(z, alpha) rotation(y, beta) rotation(z, gamma), the two
    diagonal z rotations applied as row and column scalings.  alpha is
    read from the third column, scaled by sin(beta), and gamma from the
    upper 2x2 block, which gives alpha + gamma scaled by 1 + cos(beta) and
    alpha - gamma scaled by 1 - cos(beta); taking the larger scale keeps
    each angle as accurate as the entries it multiplies, so beta = 0 and
    beta = pi, where only alpha +- gamma is defined, need no special case.
    """
    r = model.frame
    beta = np.arctan2(np.hypot(r[0, 2], r[1, 2]), r[2, 2])
    alpha = np.arctan2(r[1, 2], r[0, 2])
    if r[2, 2] >= 0.0:
        gamma = np.arctan2(r[1, 0] - r[0, 1], r[0, 0] + r[1, 1]) - alpha
    else:
        gamma = alpha + np.arctan2(r[0, 1] + r[1, 0], r[1, 1] - r[0, 0])
    # the z rotations are diagonal, rotations of ones: they scale rows and columns
    ones = np.ones(space.dim, dtype=complex)
    left, right = (rotation(space, "z", float(angle), of=ones) for angle in (alpha, gamma))
    return left[:, None] * rotation(space, "y", float(beta)) * right
