"""Collective spin operators on the symmetric (Dicke) subspace.

For N spin-1/2 particles the symmetric sector carries total spin j = N/2 and
has dimension N + 1.  The basis is ordered by decreasing magnetic quantum
number, so index 0 is |j, j> and index N is |j, -j>.  All matrices are dense,
double-precision complex, and frozen (read-only) once built.  A DickeSpace
holds its operators, their squares and the x and y axis eigendecompositions
of ``states.rotate_state``, each built on first use (safe under threads: all
callers get the one stored copy) and released with the space.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSize, TooLarge

LABELS = ("Sx", "Sy", "Sz", "S+", "S-", "S2")
# Dense complex matrices kept for one space during compare_pulsed: the Sx, Sy,
# Sz, Sx^2, Sy^2, Sz^2 and one rotation axis's v, v^H that it holds once used
# (built thread-safely, freed with it), and the v, v^H of three callers' bases.
DENSE_MATRICES_PER_SPACE = 14


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


@dataclass(frozen=True)
class SpinOperator:
    """A dense operator on a Dicke space, tagged with its label."""

    matrix: np.ndarray
    label: str

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def build_space(n_spins: int) -> DickeSpace:
    """The Dicke space of ``n_spins``; TooLarge when the dense operators
    kept for it would not fit in physical memory."""
    if int(n_spins) != n_spins or n_spins < 1:
        raise InvalidSize(f"n_spins must be a positive integer, got {n_spins!r}")
    n = int(n_spins)
    needed = DENSE_MATRICES_PER_SPACE * 16 * (n + 1) ** 2
    available = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if needed > available:
        raise TooLarge(
            f"n_spins={n} needs {needed / 2**30:.3g} GiB of dense operators, "
            f"more than the {available / 2**30:.3g} GiB of physical memory"
        )
    return DickeSpace(n_spins=n, dim=n + 1, j=n / 2.0)


def _frozen(mat: np.ndarray) -> np.ndarray:
    mat.flags.writeable = False
    return mat


def collective_operator(space: DickeSpace, label: str) -> SpinOperator:
    """Collective spin operator with standard angular-momentum matrix elements.

    <j, m+-1 | S+- | j, m> = sqrt(j(j+1) - m(m+-1)); Sx = (S+ + S-)/2,
    Sy = (S+ - S-)/(2i), Sz diagonal with entries m, S2 = j(j+1) * identity.
    """
    if label not in LABELS:
        raise ValueError(f"unknown operator label {label!r}, expected one of {LABELS}")
    return space.built(label, lambda: SpinOperator(_frozen(_operator_matrix(space, label)), label))


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


def quadratic_form(space: DickeSpace, a: float, b: float, c: float) -> SpinOperator:
    """Return the Hermitian quadratic form a*Sx^2 + b*Sy^2 + c*Sz^2."""
    for name, coeff in (("a", a), ("b", b), ("c", c)):
        if not np.isfinite(coeff):
            raise ValueError(f"coefficient {name} must be finite, got {coeff!r}")
    mats = second_moment_operators(space)
    mat = a * mats["xx"] + b * mats["yy"] + c * mats["zz"]
    return SpinOperator(matrix=_frozen(mat), label="custom")


def second_moment_operators(space: DickeSpace) -> dict[str, np.ndarray]:
    """The squares Sx^2, Sy^2, Sz^2 the space holds, keyed "xx", "yy", "zz"."""

    def build():
        sx = collective_operator(space, "Sx").matrix
        sy = collective_operator(space, "Sy").matrix
        sz = collective_operator(space, "Sz").matrix
        return {"xx": _frozen(sx @ sx), "yy": _frozen(sy @ sy), "zz": _frozen(sz @ sz)}

    return space.built("moments", build)
