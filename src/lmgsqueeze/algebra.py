"""Collective spin operators on the symmetric (Dicke) subspace, and the
Eigenbasis that applies exp(-i t G) for a Hermitian generator G.

For N spin-1/2 particles the symmetric sector carries total spin j = N/2 and
has dimension N + 1.  The basis is ordered by decreasing magnetic quantum
number, so index 0 is |j, j> and index N is |j, -j>.  An operator is a
plain dense, double-precision complex ``np.ndarray``, frozen (read-only)
once built.  A DickeSpace holds its operators, their squares and the x and
y axis eigenbases of ``states.rotate_state``, each built on first use (safe
under threads: all callers get the one stored copy) and released with the
space.

Every exp(-i t G) is applied through an Eigenbasis of G: free evolution,
the x and y pulses, coherent-state preparation and cycle unitaries.  Only
the diagonal z rotation and the 2^N product-space oracle exponentiate on
their own.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSize, NotHermitian, TooLarge

LABELS = ("Sx", "Sy", "Sz", "S+", "S-", "S2")
HERMITICITY_TOL = 1e-10
# Dense complex matrices kept for one space during compare_pulsed: the Sx, Sy,
# Sz, Sx^2, Sy^2, Sz^2 and one rotation axis's v, v^H that it holds once used
# (built thread-safely, freed with it), and the v, v^H of three callers' bases.
DENSE_MATRICES_PER_SPACE = 14
# Dense complex (N+1) x K blocks alive at once while xi^2 is taken at K
# times (metrics.batch_squeezing): the states, Sx, Sy and Sz applied to them,
# their conjugate and one product (tracemalloc peak: 6.1 blocks).
TRACE_BLOCKS = 6


@dataclass(frozen=True)
class DickeSpace:
    """Symmetric subspace of ``n_spins`` spin-1/2 particles and the objects
    built for it; equality and hashing use (n_spins, dim, j) only."""

    n_spins: int
    dim: int
    j: float
    _built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers in basis order: j, j-1, ..., -j."""
        return self.j - np.arange(self.dim)

    def built(self, key, build):
        """The object kept under ``key``, made by ``build()`` on first use."""
        value = self._built.get(key)
        if value is None:
            # setdefault is atomic: concurrent builders all get the stored copy
            value = self._built.setdefault(key, build())
        return value

    def __reduce__(self):
        # a copy sent to another process carries its size, not its operators
        return (DickeSpace, (self.n_spins, self.dim, self.j))


def build_space(n_spins: int) -> DickeSpace:
    """The Dicke space of ``n_spins``; TooLarge when the dense operators
    kept for it would not fit in physical memory."""
    if int(n_spins) != n_spins or n_spins < 1:
        raise InvalidSize(f"n_spins must be a positive integer, got {n_spins!r}")
    n = int(n_spins)
    require_memory(DENSE_MATRICES_PER_SPACE * 16 * (n + 1) ** 2, f"dense operators at n_spins={n}")
    return DickeSpace(n_spins=n, dim=n + 1, j=n / 2.0)


def require_memory(needed: int, what: str) -> None:
    """Raise TooLarge when ``needed`` bytes, held at once for ``what``,
    exceed physical memory; callers check before they allocate."""
    available = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if needed > available:
        raise TooLarge(
            f"{what} need {needed / 2**30:.3g} GiB, "
            f"more than the {available / 2**30:.3g} GiB of physical memory"
        )


def _frozen(mat: np.ndarray) -> np.ndarray:
    mat.flags.writeable = False
    return mat


def collective_operator(space: DickeSpace, label: str) -> np.ndarray:
    """Collective spin operator with standard angular-momentum matrix elements.

    <j, m+-1 | S+- | j, m> = sqrt(j(j+1) - m(m+-1)); Sx = (S+ + S-)/2,
    Sy = (S+ - S-)/(2i), Sz diagonal with entries m, S2 = j(j+1) * identity.
    """
    if label not in LABELS:
        raise ValueError(f"unknown operator label {label!r}, expected one of {LABELS}")
    return space.built(label, lambda: _frozen(_operator_matrix(space, label)))


def _operator_matrix(space: DickeSpace, label: str) -> np.ndarray:
    j = space.j
    m = space.m_values()
    if label == "Sz":
        return np.diag(m).astype(complex)
    if label == "S2":
        return j * (j + 1) * np.eye(space.dim, dtype=complex)
    # S+ raises m, which moves one index up in the descending-m ordering.
    up = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    splus = np.diag(up, k=1).astype(complex)
    if label == "S+":
        return splus
    if label == "S-":
        return splus.T.copy()
    if label == "Sx":
        return 0.5 * (splus + splus.T)
    return -0.5j * (splus - splus.T)  # Sy


def quadratic_form(space: DickeSpace, a: float, b: float, c: float) -> np.ndarray:
    """Return the Hermitian quadratic form a*Sx^2 + b*Sy^2 + c*Sz^2."""
    for name, coeff in (("a", a), ("b", b), ("c", c)):
        if not np.isfinite(coeff):
            raise ValueError(f"coefficient {name} must be finite, got {coeff!r}")
    mats = second_moment_operators(space)
    return _frozen(a * mats["xx"] + b * mats["yy"] + c * mats["zz"])


def second_moment_operators(space: DickeSpace) -> dict[str, np.ndarray]:
    """The squares Sx^2, Sy^2, Sz^2 the space holds, keyed "xx", "yy", "zz"."""

    def build():
        sx = collective_operator(space, "Sx")
        sy = collective_operator(space, "Sy")
        sz = collective_operator(space, "Sz")
        return {"xx": _frozen(sx @ sx), "yy": _frozen(sy @ sy), "zz": _frozen(sz @ sz)}

    return space.built("moments", build)


def hamiltonian_eig(hamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a Hermitian matrix (else NotHermitian)."""
    mat = np.asarray(hamiltonian)
    scale = max(1.0, float(np.max(np.abs(mat))) if mat.size else 1.0)
    if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOL * scale:
        raise NotHermitian("hamiltonian is not Hermitian")
    return np.linalg.eigh(mat)


@dataclass(frozen=True)
class Eigenbasis:
    """Eigenvalues ``w``, eigenvector columns ``v`` and ``vh = v.conj().T``
    of one Hermitian generator G, factored once and reused for every t;
    the arrays are frozen."""

    w: np.ndarray
    v: np.ndarray
    vh: np.ndarray

    def __post_init__(self):
        for array in (self.w, self.v, self.vh):
            _frozen(array)

    @classmethod
    def of_eigh(cls, w: np.ndarray, v: np.ndarray) -> "Eigenbasis":
        """The basis of an ``np.linalg.eigh`` result (w, v)."""
        return cls(w=w, v=v, vh=v.conj().T)

    @classmethod
    def of(cls, hamiltonian) -> "Eigenbasis":
        """Factor ``hamiltonian`` (an Eigenbasis is returned as it is)."""
        if isinstance(hamiltonian, Eigenbasis):
            return hamiltonian
        return cls.of_eigh(*hamiltonian_eig(hamiltonian))

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
        return cls.of_eigh(w[order], v[:, order])

    def propagate(self, amplitudes: np.ndarray, t: float) -> np.ndarray:
        """exp(-i G t) applied to an amplitude vector."""
        return self.v @ (np.exp(-1j * self.w * t) * (self.vh @ amplitudes))

    def unitary(self, t: float) -> np.ndarray:
        """exp(-i G t) as a dense matrix."""
        return (self.v * np.exp(-1j * self.w * t)) @ self.vh
