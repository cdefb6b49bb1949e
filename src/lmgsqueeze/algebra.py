"""Collective spin operators on the symmetric (Dicke) subspace.

For N spin-1/2 particles the symmetric sector carries total spin j = N/2 and
has dimension N + 1.  The basis is ordered by decreasing magnetic quantum
number, so index 0 is |j, j> and index N is |j, -j>.  All matrices are dense,
double-precision complex, and frozen (read-only) once built; cached operators
may be shared freely between threads.
"""

import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSize, TooLarge

LABELS = ("Sx", "Sy", "Sz", "S+", "S-", "S2")
# Dense complex matrices kept for one space: the cached Sx, Sy, Sz and
# Sx^2, Sy^2, Sz^2, plus the v and v^H of one eigenbasis.
DENSE_MATRICES_PER_SPACE = 8

_OPERATOR_CACHE: dict[tuple[int, str], "SpinOperator"] = {}
_MOMENT_CACHE: dict[int, dict[str, np.ndarray]] = {}


@dataclass(frozen=True)
class DickeSpace:
    """Symmetric subspace of ``n_spins`` spin-1/2 particles."""

    n_spins: int
    dim: int
    j: float

    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers in basis order: j, j-1, ..., -j."""
        return self.j - np.arange(self.dim)


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
    key = (space.n_spins, label)
    cached = _OPERATOR_CACHE.get(key)
    if cached is not None:
        return cached

    j = space.j
    m = space.m_values()
    if label == "Sz":
        mat = np.diag(m).astype(complex)
    elif label == "S2":
        mat = j * (j + 1) * np.eye(space.dim, dtype=complex)
    else:
        # S+ raises m, which moves one index up in the descending-m ordering.
        up = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
        splus = np.diag(up, k=1).astype(complex)
        if label == "S+":
            mat = splus
        elif label == "S-":
            mat = splus.T.copy()
        elif label == "Sx":
            mat = 0.5 * (splus + splus.T)
        else:  # Sy
            mat = -0.5j * (splus - splus.T)

    op = SpinOperator(matrix=_frozen(mat), label=label)
    _OPERATOR_CACHE[key] = op
    return op


def quadratic_form(space: DickeSpace, a: float, b: float, c: float) -> SpinOperator:
    """Return the Hermitian quadratic form a*Sx^2 + b*Sy^2 + c*Sz^2."""
    for name, coeff in (("a", a), ("b", b), ("c", c)):
        if not np.isfinite(coeff):
            raise ValueError(f"coefficient {name} must be finite, got {coeff!r}")
    mats = second_moment_operators(space)
    mat = a * mats["xx"] + b * mats["yy"] + c * mats["zz"]
    return SpinOperator(matrix=_frozen(mat), label="custom")


def second_moment_operators(space: DickeSpace) -> dict[str, np.ndarray]:
    """Cached squares Sx^2, Sy^2, Sz^2, keyed "xx", "yy", "zz"."""
    cached = _MOMENT_CACHE.get(space.n_spins)
    if cached is not None:
        return cached
    sx = collective_operator(space, "Sx").matrix
    sy = collective_operator(space, "Sy").matrix
    sz = collective_operator(space, "Sz").matrix
    prods = {"xx": _frozen(sx @ sx), "yy": _frozen(sy @ sy), "zz": _frozen(sz @ sz)}
    _MOMENT_CACHE[space.n_spins] = prods
    return prods
